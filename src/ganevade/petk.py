"""Minimal PE32/PE32+ parser, validator, and rewriter.

Supports the three on-disk realizations of adversarial features: overlay
append, import-table extension, and string-section injection, plus a
deterministic synthetic-PE generator for fixtures and corpora. Images are
values: every editor returns a freshly parsed image and leaves its input
untouched. Serializing an unmodified image is byte-identical to the input.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

FILE_ALIGN = 0x200
SECT_ALIGN = 0x1000
SECTION_HEADER_SIZE = 40
IMPORT_DESCRIPTOR_SIZE = 20

CHAR_CODE = 0x00000020
CHAR_INITIALIZED_DATA = 0x00000040
CHAR_MEM_EXECUTE = 0x20000000
CHAR_MEM_READ = 0x40000000
CHAR_MEM_WRITE = 0x80000000

DIR_IMPORT = 1
DIR_IAT = 12


class PeEditError(Exception):
    """kind: parse | alignment | capacity | invariant."""

    def __init__(self, kind: str, offset: int, message: str):
        super().__init__(f"[{kind} @ {offset:#x}] {message}")
        self.kind = kind
        self.offset = offset
        self.message = message


def _align_up(x: int, a: int) -> int:
    return (x + a - 1) // a * a


@dataclass
class Section:
    name: str
    virtual_size: int
    virtual_address: int
    raw_size: int
    raw_offset: int
    characteristics: int

    @property
    def raw_end(self) -> int:
        return self.raw_offset + self.raw_size


@dataclass
class ImportEntry:
    name: str | None = None     # None means import by ordinal
    ordinal: int | None = None
    hint: int = 0


@dataclass
class ImportDescriptor:
    library: str
    entries: list[ImportEntry] = field(default_factory=list)


@dataclass
class PeImage:
    data: bytes
    is_pe64: bool
    e_lfanew: int
    size_of_optional: int
    section_align: int
    file_align: int
    size_of_image: int
    size_of_headers: int
    data_dirs: list[tuple[int, int]]
    sections: list[Section]
    import_descriptors: list[ImportDescriptor]
    overlay_offset: int
    anomalies: list[str] = field(default_factory=list)
    # False when a lenient parse cut the import walk short: the image may
    # then import more than ``import_descriptors`` holds
    imports_complete: bool = True

    @property
    def overlay(self) -> bytes:
        return self.data[self.overlay_offset:]

    @property
    def opt_offset(self) -> int:
        return self.e_lfanew + 24

    @property
    def section_table_offset(self) -> int:
        return self.opt_offset + self.size_of_optional

    @functools.cached_property
    def spans(self) -> tuple[tuple[int, int, int], ...]:
        """Each section's ``(start, end, raw_offset)`` in RVAs, in table
        order; a section spans the larger of its virtual and raw sizes."""
        return tuple((s.virtual_address,
                      s.virtual_address + max(s.virtual_size, s.raw_size),
                      s.raw_offset) for s in self.sections)

    def rva_run(self, rva: int) -> tuple[int, int, int]:
        """``(lo, hi, delta)``: the widest range of RVAs around ``rva`` that
        all map to their file offsets by adding ``delta``.

        An RVA below ``SizeOfHeaders`` is its own offset. Any other maps
        through the first section in table order whose span holds it; a
        lenient parse lets spans overlap, so an earlier span cuts the range
        where it begins or ends."""
        if rva < self.size_of_headers:
            return 0, self.size_of_headers, 0
        for i, (start, end, raw) in enumerate(self.spans):
            if start <= rva < end:
                lo = max(start, self.size_of_headers)
                for s, e, _ in self.spans[:i]:
                    if s >= e:
                        continue
                    if s > rva:
                        end = min(end, s)
                    elif e > lo:
                        lo = e
                return lo, end, raw - start
        raise PeEditError("parse", rva, f"RVA {rva:#x} maps to no section")

    def rva_to_offset(self, rva: int) -> int:
        return rva + self.rva_run(rva)[2]


def _read_cstring(data: bytes, offset: int) -> str:
    end = data.find(b"\x00", offset)
    if end < 0:
        end = len(data)
    return data[offset:end].decode("latin-1")


def _unpack(fmt: str, data: bytes, offset: int) -> tuple:
    """``struct.unpack_from`` with an out-of-range read reported as a parse
    error, so lenient parsing fails only with ``PeEditError``."""
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error:
        raise PeEditError("parse", offset,
                          f"read of {fmt!r} past end of file") from None


def _pack(fmt: str, buf: bytearray, offset: int, *values) -> None:
    """``struct.pack_into`` with a value its field cannot hold (one derived
    from an untrusted header value) reported as an edit error, the twin of
    ``_unpack``."""
    try:
        struct.pack_into(fmt, buf, offset, *values)
    except struct.error:
        raise PeEditError("capacity", offset,
                          f"value out of range for {fmt!r}") from None


def parse(data: bytes, strict: bool = True) -> PeImage:
    """Parse raw bytes into a PeImage; strict mode rejects malformed inputs."""
    anomalies: list[str] = []

    def problem(kind, offset, msg):
        if strict:
            raise PeEditError(kind, offset, msg)
        anomalies.append(f"{kind}@{offset:#x}: {msg}")

    if len(data) < 64:
        raise PeEditError("parse", 0, "file shorter than a DOS header")
    if data[:2] != b"MZ":
        raise PeEditError("parse", 0, "bad MZ magic")
    (e_lfanew,) = _unpack("<I", data, 0x3C)
    if e_lfanew + 24 > len(data):
        raise PeEditError("parse", e_lfanew, "PE header past end of file")
    if data[e_lfanew:e_lfanew + 4] != b"PE\x00\x00":
        raise PeEditError("parse", e_lfanew, "bad PE signature")

    _machine, nsec, _ts, _symptr, _nsym, opt_size, _chars = _unpack(
        "<HHIIIHH", data, e_lfanew + 4)
    opt = e_lfanew + 24
    if opt + opt_size > len(data):
        raise PeEditError("parse", opt, "optional header truncated")
    (magic,) = _unpack("<H", data, opt)
    if magic == 0x10B:
        is_pe64 = False
        ndirs_off = opt + 92
    elif magic == 0x20B:
        is_pe64 = True
        ndirs_off = opt + 108
    else:
        raise PeEditError("parse", opt, f"unknown optional-header magic {magic:#x}")
    sect_align, file_align = _unpack("<II", data, opt + 32)
    size_of_image, size_of_headers = _unpack("<II", data, opt + 56)
    (ndirs,) = _unpack("<I", data, ndirs_off)
    dirs = []
    for i in range(ndirs):
        dirs.append(_unpack("<II", data, ndirs_off + 4 + 8 * i))

    st = opt + opt_size
    sections = []
    for i in range(nsec):
        off = st + SECTION_HEADER_SIZE * i
        if off + SECTION_HEADER_SIZE > len(data):
            raise PeEditError("parse", off, "section table truncated")
        raw = _unpack("<8sIIIIIIHHI", data, off)
        name = raw[0].rstrip(b"\x00").decode("latin-1")
        sec = Section(name=name, virtual_size=raw[1], virtual_address=raw[2],
                      raw_size=raw[3], raw_offset=raw[4], characteristics=raw[9])
        if sec.raw_size and sec.raw_end > len(data):
            problem("parse", off, f"section {name!r} raw data out of range")
        if sec.raw_size and file_align and sec.raw_offset % file_align:
            problem("alignment", off,
                    f"section {name!r} raw offset not file-aligned")
        sections.append(sec)

    for a, b in zip(sections, sections[1:]):
        if b.virtual_address < a.virtual_address:
            problem("invariant", st, "section virtual addresses not ascending")
        if a.raw_size and b.raw_size and b.raw_offset < a.raw_end:
            problem("invariant", st, "section raw ranges overlap")
    if sections:
        last = max(s.virtual_address + max(s.virtual_size, 1) for s in sections)
        if size_of_image < last:
            problem("invariant", opt + 56, "SizeOfImage smaller than last section")

    overlay_offset = max([s.raw_end for s in sections if s.raw_size],
                         default=size_of_headers)
    overlay_offset = min(overlay_offset, len(data))

    pe = PeImage(data=bytes(data), is_pe64=is_pe64, e_lfanew=e_lfanew,
                 size_of_optional=opt_size, section_align=sect_align,
                 file_align=file_align, size_of_image=size_of_image,
                 size_of_headers=size_of_headers, data_dirs=dirs,
                 sections=sections, import_descriptors=[],
                 overlay_offset=overlay_offset, anomalies=anomalies)
    try:
        _parse_imports(pe, pe.import_descriptors)
    except PeEditError as exc:
        if strict:
            raise
        # keep the descriptors and entries read before the walk failed
        anomalies.append(f"{exc.kind}@{exc.offset:#x}: import walk cut "
                         f"short: {exc.message}")
        pe.imports_complete = False
    return pe


def _parse_imports(pe: PeImage, descriptors: list) -> None:
    """Walk the import directory into ``descriptors``: a descriptor joins
    once its library name is read and an entry once it is read, so a walk
    that raises ``PeEditError`` leaves what it read."""
    if len(pe.data_dirs) <= DIR_IMPORT or pe.data_dirs[DIR_IMPORT][0] == 0:
        return
    rva = pe.data_dirs[DIR_IMPORT][0]
    data = pe.data
    thunk_size = 8 if pe.is_pe64 else 4
    thunk_fmt = "<Q" if pe.is_pe64 else "<I"
    ordinal_flag = 1 << (thunk_size * 8 - 1)
    run = (0, 0, 0)

    def offset(r: int) -> int:
        # descriptors, thunks and names mostly lie in one run of RVAs
        nonlocal run
        if not run[0] <= r < run[1]:
            run = pe.rva_run(r)
        return r + run[2]

    idx = 0
    while True:
        off = offset(rva + IMPORT_DESCRIPTOR_SIZE * idx)
        if off + IMPORT_DESCRIPTOR_SIZE > len(data):
            raise PeEditError("parse", off, "import descriptor out of range")
        ilt, _ts, _fc, name_rva, iat = _unpack("<IIIII", data, off)
        if ilt == 0 and name_rva == 0 and iat == 0:
            break
        library = _read_cstring(data, offset(name_rva))
        desc = ImportDescriptor(library=library)
        descriptors.append(desc)
        thunk_rva = ilt or iat
        j = 0
        while True:
            toff = offset(thunk_rva + thunk_size * j)
            (value,) = _unpack(thunk_fmt, data, toff)
            if value == 0:
                break
            if value & ordinal_flag:
                desc.entries.append(ImportEntry(ordinal=value & 0xFFFF))
            else:
                hoff = offset(value)
                (hint,) = _unpack("<H", data, hoff)
                desc.entries.append(
                    ImportEntry(name=_read_cstring(data, hoff + 2), hint=hint))
            j += 1
            if j > 4096:
                raise PeEditError("parse", toff, "unterminated import thunk table")
        idx += 1
        if idx > 4096:
            raise PeEditError("parse", off, "unterminated import descriptor table")


# --- editors ---------------------------------------------------------------

def append_overlay(pe: PeImage, plan) -> PeImage:
    """Append the plan's bytes after end-of-file, grouped by value ascending."""
    chunks = [bytes([v]) * int(c) for v, c in enumerate(plan.p) if c > 0]
    return parse(pe.data + b"".join(chunks), strict=True)


def _zero_checksum(buf: bytearray, pe: PeImage) -> None:
    _pack("<I", buf, pe.opt_offset + 64, 0)


def _check_layout(pe: PeImage) -> None:
    """Reject an image a new section cannot be added to: one whose import
    walk was cut short (a rebuilt directory would drop the imports it could
    not read, and new bytes could change what the walk reads), a zero
    alignment, a file alignment over the format's 64 KiB, or raw data
    declared to end more than one file alignment past the end of the file
    (the section's padding and the gap before it would be zero-filled)."""
    if not pe.imports_complete:
        raise PeEditError("invariant", pe.data_dirs[DIR_IMPORT][0],
                          "import directory only partly read")
    if pe.section_align == 0 or not 0 < pe.file_align <= 0x10000:
        raise PeEditError("alignment", pe.opt_offset + 32,
                          f"section alignment {pe.section_align:#x} or file "
                          f"alignment {pe.file_align:#x} unusable")
    raw_ends = [s.raw_end for s in pe.sections if s.raw_size]
    raw_end = _align_up(max(raw_ends + [pe.size_of_headers]), pe.file_align)
    if raw_end > len(pe.data) + pe.file_align:
        raise PeEditError("invariant", pe.section_table_offset,
                          f"raw data declared to end at {raw_end:#x}, past "
                          f"the file's {len(pe.data):#x} bytes")


def _next_virtual_address(pe: PeImage) -> int:
    """The first aligned RVA past every section's span as ``rva_to_offset``
    reads it, so that no RVA in the new section resolves to an old one."""
    if not pe.sections:
        return pe.section_align
    last = max(s.virtual_address + max(s.virtual_size, s.raw_size, 1)
               for s in pe.sections)
    return _align_up(last, pe.section_align)


def add_section(pe: PeImage, name: str, content: bytes,
                characteristics: int = CHAR_INITIALIZED_DATA | CHAR_MEM_READ
                ) -> PeImage:
    """Append a new final section holding ``content``.

    Raw data is padded to file alignment (one unit minimum); existing raw
    offsets shift only when the section table has no slack for the header.
    """
    if len(name.encode("latin-1")) > 8:
        raise PeEditError("capacity", 0, f"section name {name!r} longer than 8 bytes")
    _check_layout(pe)
    buf = bytearray(pe.data)
    st = pe.section_table_offset
    header_end = st + SECTION_HEADER_SIZE * (len(pe.sections) + 1)
    first_raw = min([s.raw_offset for s in pe.sections if s.raw_size],
                    default=len(buf))
    headers_cap = min(pe.size_of_headers, first_raw)
    shift = 0
    if header_end > headers_cap:
        shift = _align_up(header_end - headers_cap, pe.file_align)
        buf[pe.size_of_headers:pe.size_of_headers] = bytes(shift)
        _pack("<I", buf, pe.opt_offset + 60, pe.size_of_headers + shift)
        for i, s in enumerate(pe.sections):
            if s.raw_size:
                _pack("<I", buf, st + SECTION_HEADER_SIZE * i + 20,
                      s.raw_offset + shift)

    raw_ends = [s.raw_end + shift for s in pe.sections if s.raw_size]
    raw_ends.append(pe.size_of_headers + shift)
    raw_base = _align_up(max(raw_ends), pe.file_align)
    overlay_at = pe.overlay_offset + shift

    raw_size = max(_align_up(len(content), pe.file_align), pe.file_align)
    payload = content + bytes(raw_size - len(content))
    gap = bytes(raw_base - overlay_at) if raw_base > overlay_at else b""
    insert_at = overlay_at

    va = _next_virtual_address(pe)
    vsize = len(content) if content else raw_size
    hdr_off = st + SECTION_HEADER_SIZE * len(pe.sections)
    _pack("<8sIIIIIIHHI", buf, hdr_off,
          name.encode("latin-1").ljust(8, b"\x00"),
          vsize, va, raw_size, raw_base, 0, 0, 0, 0, characteristics)
    _pack("<H", buf, pe.e_lfanew + 6, len(pe.sections) + 1)
    _pack("<I", buf, pe.opt_offset + 56,
          _align_up(va + max(vsize, 1), pe.section_align))
    _zero_checksum(buf, pe)

    new_data = bytes(buf[:insert_at]) + gap + payload + bytes(buf[insert_at:])
    return parse(new_data, strict=True)


def _parse_token(token: str) -> tuple[str, ImportEntry]:
    lib, _, func = token.partition("!")
    if not lib or not func:
        raise PeEditError("invariant", 0, f"malformed import token {token!r}")
    if func.startswith("#"):
        return lib, ImportEntry(ordinal=int(func[1:]))
    return lib, ImportEntry(name=func)


def _build_import_blob(descriptors: list[ImportDescriptor], base_rva: int,
                       is_pe64: bool) -> tuple[bytes, int]:
    """Fresh directory: descriptors, per-library ILT+IAT, hint/names, names."""
    thunk_size = 8 if is_pe64 else 4
    ordinal_flag = 1 << (thunk_size * 8 - 1)
    desc_bytes = IMPORT_DESCRIPTOR_SIZE * (len(descriptors) + 1)

    cursor = desc_bytes
    thunk_offsets = []
    for desc in descriptors:
        ilt_off = cursor
        cursor += thunk_size * (len(desc.entries) + 1)
        iat_off = cursor
        cursor += thunk_size * (len(desc.entries) + 1)
        thunk_offsets.append((ilt_off, iat_off))

    hint_name_offsets: list[list[int | None]] = []
    hint_blob = bytearray()
    for desc in descriptors:
        offs: list[int | None] = []
        for entry in desc.entries:
            if entry.name is None:
                offs.append(None)
            else:
                if len(hint_blob) % 2:
                    hint_blob += b"\x00"
                offs.append(cursor + len(hint_blob))
                hint_blob += struct.pack("<H", entry.hint)
                hint_blob += entry.name.encode("latin-1") + b"\x00"
        hint_name_offsets.append(offs)
    cursor += len(hint_blob)

    name_offsets = []
    name_blob = bytearray()
    for desc in descriptors:
        name_offsets.append(cursor + len(name_blob))
        name_blob += desc.library.encode("latin-1") + b"\x00"
    cursor += len(name_blob)

    blob = bytearray(cursor)
    for i, desc in enumerate(descriptors):
        ilt_off, iat_off = thunk_offsets[i]
        _pack("<IIIII", blob, IMPORT_DESCRIPTOR_SIZE * i,
              base_rva + ilt_off, 0, 0,
              base_rva + name_offsets[i], base_rva + iat_off)
        fmt = "<Q" if is_pe64 else "<I"
        for j, entry in enumerate(desc.entries):
            if entry.name is None:
                value = ordinal_flag | entry.ordinal
            else:
                value = base_rva + hint_name_offsets[i][j]
                if value & ordinal_flag:
                    raise PeEditError("capacity", base_rva,
                                      f"name RVA {value:#x} reads as an ordinal")
            _pack(fmt, blob, ilt_off + thunk_size * j, value)
            _pack(fmt, blob, iat_off + thunk_size * j, value)
    blob[cursor - len(name_blob) - len(hint_blob):cursor - len(name_blob)] = hint_blob
    blob[cursor - len(name_blob):cursor] = name_blob
    return bytes(blob), desc_bytes


def extend_imports(pe: PeImage, new_tokens, section_name: str = ".idat2"
                   ) -> tuple[PeImage, list[str]]:
    """Rebuild the import directory in a new section with tokens added.

    Returns the edited image and the list of duplicate tokens skipped.
    The original import section stays in place, unreferenced.
    """
    from .features import extract_imports

    _check_layout(pe)
    existing = extract_imports(pe)
    descriptors = [ImportDescriptor(d.library, list(d.entries))
                   for d in pe.import_descriptors]
    by_lib = {d.library.lower(): d for d in descriptors}

    skipped = []
    for token in sorted(new_tokens):
        lib, entry = _parse_token(token)
        if token.lower() in existing:
            skipped.append(token)
            continue
        desc = by_lib.get(lib.lower())
        if desc is None:
            desc = ImportDescriptor(lib)
            descriptors.append(desc)
            by_lib[lib.lower()] = desc
        desc.entries.append(entry)

    base_rva = _next_virtual_address(pe)
    blob, dir_size = _build_import_blob(descriptors, base_rva, pe.is_pe64)
    edited = add_section(
        pe, section_name, blob,
        characteristics=CHAR_INITIALIZED_DATA | CHAR_MEM_READ | CHAR_MEM_WRITE)
    new_sec = edited.sections[-1]
    if new_sec.virtual_address != base_rva:
        raise PeEditError("invariant", 0, "import section landed off-plan")

    buf = bytearray(edited.data)
    ndirs_off = edited.opt_offset + (108 if edited.is_pe64 else 92)
    _pack("<II", buf, ndirs_off + 4 + 8 * DIR_IMPORT, base_rva, dir_size)
    if len(edited.data_dirs) > DIR_IAT:
        _pack("<II", buf, ndirs_off + 4 + 8 * DIR_IAT, 0, 0)
    return parse(bytes(buf), strict=True), skipped


# --- synthetic generator ---------------------------------------------------

@dataclass
class SectionSpec:
    name: str
    content: bytes | None = None
    size: int = 0               # random-fill size when content is None
    characteristics: int = CHAR_CODE | CHAR_MEM_EXECUTE | CHAR_MEM_READ


@dataclass
class SynthSpec:
    sections: list[SectionSpec] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)
    strings: list[str] = field(default_factory=list)
    overlay: bytes = b""
    pe64: bool = False


def synth_pe(spec: SynthSpec, seed: int = 0) -> bytes:
    """Deterministic minimal valid PE realizing the spec."""
    rng = np.random.default_rng(seed)
    sections: list[tuple[str, bytes, int]] = []
    specs = spec.sections or [SectionSpec(".text", b"\xC3")]
    for s in specs:
        content = s.content if s.content is not None else rng.bytes(s.size or 64)
        sections.append((s.name, content, s.characteristics))
    if spec.strings:
        payload = b"\x00" + b"\x00".join(
            s.encode("latin-1") for s in spec.strings) + b"\x00"
        sections.append((".sdata", payload,
                         CHAR_INITIALIZED_DATA | CHAR_MEM_READ))

    is_pe64 = spec.pe64
    opt_size = 240 if is_pe64 else 224
    e_lfanew = 0x40
    nsec = len(sections) + 1  # +1 for the import section
    st = e_lfanew + 24 + opt_size
    headers_end = st + SECTION_HEADER_SIZE * nsec
    # leave slack for a few more section headers added by later edits
    size_of_headers = _align_up(headers_end + SECTION_HEADER_SIZE * 4, FILE_ALIGN)

    # lay out non-import sections first, import section last
    layout = []
    va = SECT_ALIGN
    raw = size_of_headers
    for name, content, chars in sections:
        raw_size = max(_align_up(len(content), FILE_ALIGN), FILE_ALIGN)
        layout.append([name, content, chars, va, raw, raw_size])
        va = _align_up(va + max(len(content), 1), SECT_ALIGN)
        raw += raw_size

    descriptors: list[ImportDescriptor] = []
    by_lib: dict[str, ImportDescriptor] = {}
    for token in spec.imports:
        lib, entry = _parse_token(token)
        desc = by_lib.get(lib.lower())
        if desc is None:
            desc = ImportDescriptor(lib)
            by_lib[lib.lower()] = desc
            descriptors.append(desc)
        desc.entries.append(entry)
    import_rva = va
    blob, dir_size = _build_import_blob(descriptors, import_rva, is_pe64)
    raw_size = max(_align_up(len(blob), FILE_ALIGN), FILE_ALIGN)
    layout.append([".idata", blob, CHAR_INITIALIZED_DATA | CHAR_MEM_READ
                   | CHAR_MEM_WRITE, va, raw, raw_size])
    size_of_image = _align_up(va + max(len(blob), 1), SECT_ALIGN)
    file_size = raw + raw_size

    buf = bytearray(file_size)
    buf[0:2] = b"MZ"
    struct.pack_into("<I", buf, 0x3C, e_lfanew)
    buf[e_lfanew:e_lfanew + 4] = b"PE\x00\x00"
    machine = 0x8664 if is_pe64 else 0x14C
    characteristics = 0x0022 if is_pe64 else 0x0122
    struct.pack_into("<HHIIIHH", buf, e_lfanew + 4, machine, nsec, 0, 0, 0,
                     opt_size, characteristics)
    opt = e_lfanew + 24
    struct.pack_into("<H", buf, opt, 0x20B if is_pe64 else 0x10B)
    struct.pack_into("<BB", buf, opt + 2, 14, 0)
    struct.pack_into("<I", buf, opt + 16, SECT_ALIGN)  # entry point: first section
    struct.pack_into("<I", buf, opt + 20, SECT_ALIGN)  # base of code
    if is_pe64:
        struct.pack_into("<Q", buf, opt + 24, 0x140000000)
    else:
        struct.pack_into("<I", buf, opt + 28, 0x400000)
    struct.pack_into("<II", buf, opt + 32, SECT_ALIGN, FILE_ALIGN)
    struct.pack_into("<HH", buf, opt + 48, 6, 0)       # subsystem version
    struct.pack_into("<II", buf, opt + 56, size_of_image, size_of_headers)
    struct.pack_into("<H", buf, opt + 68, 3)           # console subsystem
    ndirs_off = opt + (108 if is_pe64 else 92)
    struct.pack_into("<I", buf, ndirs_off, 16)
    struct.pack_into("<II", buf, ndirs_off + 4 + 8 * DIR_IMPORT,
                     import_rva, dir_size)

    for i, (name, content, chars, s_va, s_raw, s_raw_size) in enumerate(layout):
        struct.pack_into("<8sIIIIIIHHI", buf, st + SECTION_HEADER_SIZE * i,
                         name.encode("latin-1").ljust(8, b"\x00"),
                         max(len(content), 1), s_va, s_raw_size, s_raw,
                         0, 0, 0, 0, chars)
        buf[s_raw:s_raw + len(content)] = content

    return bytes(buf) + spec.overlay
