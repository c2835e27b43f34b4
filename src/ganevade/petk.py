"""Minimal PE32/PE32+ parser, validator, and rewriter.

Supports the three on-disk realizations of adversarial features: overlay
append, import-table extension, and string-section injection, plus a
deterministic synthetic-PE generator for fixtures and corpora. Images are
values: every editor returns a freshly parsed image and leaves its input
untouched. Serializing an unmodified image is byte-identical to the input.
"""

from __future__ import annotations

import functools
import itertools
import re
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
    """Append the plan's bytes after end-of-file, grouped by value ascending.
    An image whose import walk was cut short is refused: the walk may have
    stopped at the end of the file, where it would read the new bytes as
    imports."""
    _check_imports_complete(pe)
    chunks = [bytes([v]) * int(c) for v, c in enumerate(plan.p) if c > 0]
    return parse(pe.data + b"".join(chunks), strict=True)


def _zero_checksum(buf: bytearray, pe: PeImage) -> None:
    _pack("<I", buf, pe.opt_offset + 64, 0)


def _check_imports_complete(pe: PeImage) -> None:
    if not pe.imports_complete:
        raise PeEditError("invariant", pe.data_dirs[DIR_IMPORT][0],
                          "import directory only partly read")


def _check_layout(pe: PeImage) -> None:
    """Reject an image a new section cannot be added to: one whose import
    walk was cut short (a rebuilt directory would drop the imports it could
    not read, and new bytes could change what the walk reads), a zero
    alignment, a file alignment over the format's 64 KiB, or raw data
    declared to end more than one file alignment past the end of the file
    (the section's padding and the gap before it would be zero-filled)."""
    _check_imports_complete(pe)
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


def _with_section(pe: PeImage, name: str, content: bytes,
                  characteristics: int) -> bytearray:
    """``pe``'s bytes with a new final section holding ``content`` at
    ``_next_virtual_address(pe)``, unparsed.

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
    buf[overlay_at:overlay_at] = gap + payload
    return buf


def add_section(pe: PeImage, name: str, content: bytes,
                characteristics: int = CHAR_INITIALIZED_DATA | CHAR_MEM_READ
                ) -> PeImage:
    """Append a new final section holding ``content``: one pass over the
    bytes (``_with_section``), then one strict parse of the result."""
    return parse(bytes(_with_section(pe, name, content, characteristics)),
                 strict=True)


def _group_imports(tokens, descriptors=()) -> list[tuple[str, list]]:
    """``(library, entries)`` pairs for ``_build_import_blob``: one per
    descriptor of ``descriptors``, then one per library the
    ``library!function`` tokens name that none of them does, in the order
    first seen. A token joins the last pair whose library matches it,
    ignoring case.

    An entry is an ordinal (an int) or a hint/name record (bytes: the hint,
    little-endian, then the name and its NUL); a token's hint is 0. A token
    with no library or function, one that holds a NUL or that latin-1
    cannot encode, or an ordinal (``#n``) that is not ASCII decimal digits
    in 0..65535 raises ``PeEditError("invariant")``."""
    groups = [(d.library, [e.ordinal if e.name is None else
                           struct.pack("<H", e.hint)
                           + e.name.encode("latin-1") + b"\x00"
                           for e in d.entries])
              for d in descriptors]
    by_lib = {lib.lower(): entries for lib, entries in groups}
    tokens = list(tokens)
    text = "".join(tokens)
    if "\x00" in text or not text.isascii() and max(text) > "\xff":
        bad = next(t for t in tokens
                   if "\x00" in t or max(t, default="") > "\xff")
        raise PeEditError("invariant", 0, f"import token {bad!r} holds a NUL "
                          f"or a character latin-1 cannot encode")
    for token in tokens:
        lib, _, func = token.partition("!")
        if not lib or not func:
            raise PeEditError("invariant", 0, f"malformed import token {token!r}")
        entries = by_lib.get(lib.lower())
        if entries is None:
            entries = by_lib[lib.lower()] = []
            groups.append((lib, entries))
        if func[0] == "#":
            digits = func[1:]
            if not (0 < len(digits) <= 5 and digits.isascii()
                    and digits.isdigit() and int(digits) <= 0xFFFF):
                raise PeEditError("invariant", 0,
                                  f"import token {token!r}: ordinal not a "
                                  f"decimal number in 0..65535")
            entries.append(int(digits))
        else:
            entries.append(b"\x00\x00%s\x00" % func.encode("latin-1"))
    return groups


def _build_import_blob(libraries: list[tuple[str, list]], base_rva: int,
                       is_pe64: bool) -> tuple[bytes, int]:
    """A fresh import directory at ``base_rva`` for the ``(library,
    entries)`` pairs of ``_group_imports``, laid out in one pass with its
    offsets as running sums: the descriptors; each library's thunk array,
    packed once and written twice, as its ILT and its IAT; the hint/name
    records, each at an even offset; the library names.

    Returns the bytes and the size of the descriptor table. A name RVA
    that would read as an ordinal, or an RVA its field cannot hold, raises
    ``PeEditError("capacity")``."""
    thunk_size = 8 if is_pe64 else 4
    ordinal_flag = 1 << (thunk_size * 8 - 1)
    desc_bytes = IMPORT_DESCRIPTOR_SIZE * (len(libraries) + 1)
    thunks_rva = base_rva + desc_bytes
    records_rva = thunks_rva + 2 * thunk_size * sum(
        len(entries) + 1 for _, entries in libraries)

    # each hint/name record starts at an even offset: every record but the
    # last is padded to an even length
    records = [e for _, entries in libraries for e in entries
               if not isinstance(e, int)]
    padded = [e + b"\x00" if len(e) & 1 else e for e in records]
    starts = list(itertools.accumulate(map(len, padded), initial=records_rva))
    if records:
        if starts[-2] >= ordinal_flag:
            raise PeEditError("capacity", base_rva,
                              f"name RVA {starts[-2]:#x} reads as an ordinal")
        padded[-1] = records[-1]
    hint_names = b"".join(padded)
    rvas = iter(starts)
    fmt = "Q" if is_pe64 else "I"
    fields, parts, names = [], [], []
    thunk_rva, name_rva = thunks_rva, records_rva + len(hint_names)
    try:
        for lib, entries in libraries:
            thunks = struct.pack(
                f"<{len(entries) + 1}{fmt}",
                *[ordinal_flag | e if isinstance(e, int) else next(rvas)
                  for e in entries], 0)
            parts += (thunks, thunks)
            fields += (thunk_rva, 0, 0, name_rva, thunk_rva + len(thunks))
            thunk_rva += 2 * len(thunks)
            names.append(lib.encode("latin-1") + b"\x00")
            name_rva += len(names[-1])
        head = struct.pack(f"<{len(fields) + 5}I", *fields, 0, 0, 0, 0, 0)
    except struct.error:
        raise PeEditError("capacity", base_rva,
                          "import directory RVA out of range") from None
    return b"".join([head, *parts, hint_names, *names]), desc_bytes


def extend_imports(pe: PeImage, new_tokens, section_name: str = ".idat2"
                   ) -> tuple[PeImage, list[str]]:
    """Rebuild the import directory in a new section with tokens added.

    The new section and the data-directory patch are laid out on bytes,
    then parsed once, strictly. Returns the edited image and the list of
    duplicate tokens skipped: each names, as ``features.extract_imports``
    renders it, an import the image has or an earlier token adds. The
    original import section stays in place, unreferenced.
    """
    from .features import extract_imports

    _check_layout(pe)
    seen, added, skipped = extract_imports(pe), [], []
    for token in sorted(new_tokens):
        lib, _, func = token.lower().partition("!")
        if re.fullmatch("#[0-9]{1,5}", func):   # an ordinal, as an integer
            func = f"#{int(func[1:])}"
        (skipped if f"{lib}!{func}" in seen else added).append(token)
        seen.add(f"{lib}!{func}")
    libraries = _group_imports(added, pe.import_descriptors)

    base_rva = _next_virtual_address(pe)
    blob, dir_size = _build_import_blob(libraries, base_rva, pe.is_pe64)
    buf = _with_section(
        pe, section_name, blob,
        CHAR_INITIALIZED_DATA | CHAR_MEM_READ | CHAR_MEM_WRITE)
    ndirs_off = pe.opt_offset + (108 if pe.is_pe64 else 92)
    _pack("<II", buf, ndirs_off + 4 + 8 * DIR_IMPORT, base_rva, dir_size)
    if len(pe.data_dirs) > DIR_IAT:
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
    sections: list[tuple[str, bytes, int]] = []
    specs = spec.sections or [SectionSpec(".text", b"\xC3")]
    rng = None
    for s in specs:
        if s.content is None:
            rng = rng or np.random.default_rng(seed)
        content = s.content if s.content is not None else rng.bytes(s.size or 64)
        sections.append((s.name, content, s.characteristics))
    if spec.strings:
        payload = ("\x00" + "\x00".join(spec.strings) + "\x00").encode(
            "latin-1")
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

    import_rva = va
    blob, dir_size = _build_import_blob(_group_imports(spec.imports),
                                         import_rva, is_pe64)
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
