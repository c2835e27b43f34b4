import contextlib
import resource
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganevade import harness, padopt, petk
from ganevade.features import byte_histogram, extract_imports, extract_strings
from ganevade.petk import (PeEditError, SectionSpec, SynthSpec, add_section,
                           append_overlay, extend_imports, parse, synth_pe)


def basic_spec():
    return SynthSpec(
        sections=[SectionSpec(".text", content=b"\xC3" * 200)],
        imports=["kernel32.dll!CreateFileA", "kernel32.dll!ExitProcess",
                 "user32.dll!#17"],
        strings=["an-embedded-string", "another marker value"])


class TestParse:
    def test_synth_roundtrip_byte_identical(self):
        data = synth_pe(basic_spec())
        pe = parse(data, strict=True)
        assert pe.data == data

    def test_same_seed_same_bytes(self):
        assert synth_pe(basic_spec(), seed=5) == synth_pe(basic_spec(), seed=5)

    def test_different_seed_differs(self):
        spec = SynthSpec(sections=[SectionSpec(".text", size=128)])
        assert synth_pe(spec, seed=1) != synth_pe(spec, seed=2)

    def test_rejects_bad_mz(self):
        with pytest.raises(PeEditError) as exc:
            parse(b"XX" + bytes(200))
        assert exc.value.kind == "parse"

    def test_rejects_truncated(self):
        data = synth_pe(basic_spec())
        with pytest.raises(PeEditError):
            parse(data[:100])

    def test_lenient_collects_anomalies(self):
        data = bytearray(synth_pe(basic_spec()))
        pe0 = parse(bytes(data))
        # corrupt SizeOfImage
        struct.pack_into("<I", data, pe0.opt_offset + 56, 0x123)
        pe = parse(bytes(data), strict=False)
        assert pe.anomalies

    def test_lenient_read_past_end_is_parse_error(self):
        # an empty optional header and a file that ends inside its magic
        data = bytearray(synth_pe(basic_spec()))
        pe0 = parse(bytes(data))
        struct.pack_into("<H", data, pe0.e_lfanew + 20, 0)
        with pytest.raises(PeEditError) as exc:
            parse(bytes(data[:pe0.opt_offset + 1]), strict=False)
        assert exc.value.kind == "parse"

    def test_unterminated_thunk_table_is_capped(self):
        ordinals = struct.pack("<I", 0x80000001) * 5000
        spec = basic_spec()
        spec.sections.append(SectionSpec(".thk", content=ordinals))
        data = bytearray(synth_pe(spec))
        pe0 = parse(bytes(data))
        desc = pe0.rva_to_offset(pe0.data_dirs[petk.DIR_IMPORT][0])
        thk = next(s for s in pe0.sections if s.name == ".thk")
        struct.pack_into("<I", data, desc, thk.virtual_address)
        with pytest.raises(PeEditError, match="unterminated import thunk"):
            parse(bytes(data), strict=True)
        # a lenient walk stops at the cap and keeps what it read
        pe = parse(bytes(data), strict=False)
        assert not pe.imports_complete
        assert any("unterminated import thunk" in a for a in pe.anomalies)
        assert len(pe.import_descriptors[0].entries) == 4097
        with pytest.raises(PeEditError, match="only partly read"):
            extend_imports(pe, ["fresh.dll!added"])

    def test_lenient_walk_keeps_the_descriptors_before_a_bad_rva(self):
        data = bytearray(synth_pe(basic_spec()))
        pe0 = parse(bytes(data))
        desc = pe0.rva_to_offset(pe0.data_dirs[petk.DIR_IMPORT][0])
        # the second descriptor's library name lies at an RVA of no section
        struct.pack_into("<I", data, desc + petk.IMPORT_DESCRIPTOR_SIZE + 12,
                         0x7FFF0000)
        with pytest.raises(PeEditError, match="maps to no section"):
            parse(bytes(data), strict=True)
        pe = parse(bytes(data), strict=False)
        assert pe.import_descriptors == pe0.import_descriptors[:1]
        assert not pe.imports_complete
        assert extract_imports(pe) == {"kernel32.dll!createfilea",
                                       "kernel32.dll!exitprocess"}

    def test_pe64_parses(self):
        spec = basic_spec()
        spec.pe64 = True
        pe = parse(synth_pe(spec), strict=True)
        assert pe.is_pe64
        assert extract_imports(pe) == {"kernel32.dll!createfilea",
                                       "kernel32.dll!exitprocess",
                                       "user32.dll!#17"}

    def test_overlay_detected(self):
        spec = basic_spec()
        spec.overlay = b"OVERLAY-BYTES"
        pe = parse(synth_pe(spec), strict=True)
        assert pe.overlay == b"OVERLAY-BYTES"

    def test_strings_present_in_file(self):
        data = synth_pe(basic_spec())
        found = extract_strings(data, 5)
        assert "an-embedded-string" in found
        assert "another marker value" in found


class TestAppendOverlay:
    def test_histogram_moves_to_target(self):
        data = synth_pe(basic_spec(), seed=3)
        counts = np.bincount(np.frombuffer(data, np.uint8), minlength=256)
        rng = np.random.default_rng(0)
        target = rng.dirichlet(np.full(256, 5.0))
        req = padopt.PaddingRequest(counts, target, gap=0.01)
        plan = padopt.plan_for(req)
        out = append_overlay(parse(data), plan)
        achieved = byte_histogram(out.data)
        total = len(out.data)
        assert np.abs(achieved - target).max() <= 0.01 + 256 / total
        # original content untouched, still strict-parseable
        assert out.data[:len(data)] == data
        parse(out.data, strict=True)

    def test_overlay_grouped_ascending(self):
        data = synth_pe(SynthSpec(sections=[SectionSpec(".text", b"\x90")]))
        plan = padopt.PaddingPlan(
            p=np.array([0, 2, 0, 3] + [0] * 252), total_appended=5,
            achieved=np.zeros(256))
        out = append_overlay(parse(data), plan)
        assert out.data[len(data):] == b"\x01\x01\x03\x03\x03"


class TestAddSection:
    def test_imports_and_content_preserved(self):
        data = synth_pe(basic_spec())
        pe = parse(data)
        before = extract_imports(pe)
        out = add_section(pe, ".sdat2", b"\x00payload-string-here\x00")
        parse(out.data, strict=True)
        assert extract_imports(out) == before
        assert len(out.sections) == len(pe.sections) + 1
        assert "payload-string-here" in extract_strings(out.data, 5)

    def test_section_name_length_checked(self):
        pe = parse(synth_pe(basic_spec()))
        with pytest.raises(PeEditError):
            add_section(pe, ".waytoolongname", b"x")

    def test_raw_alignment(self):
        pe = parse(synth_pe(basic_spec()))
        out = add_section(pe, ".pad", b"abc")
        new = out.sections[-1]
        assert new.raw_offset % out.file_align == 0
        assert new.raw_size % out.file_align == 0

    def test_overlay_stays_after_new_section(self):
        spec = basic_spec()
        spec.overlay = b"TRAILING"
        pe = parse(synth_pe(spec))
        out = add_section(pe, ".x", b"yy")
        assert out.overlay == b"TRAILING"

    def test_full_section_table_shifts_raw_data(self):
        # the synthetic headers hold 17 section headers; the 18th makes
        # SizeOfHeaders grow by one file alignment, moving all raw data
        spec = basic_spec()
        spec.overlay = b"TRAILING"
        pe0 = parse(synth_pe(spec))
        pe = pe0
        while pe.size_of_headers == pe0.size_of_headers:
            pe = add_section(pe, f".n{len(pe.sections)}", b"new")
            parse(pe.data, strict=True)
        assert len(pe.sections) == 18
        assert (pe0.size_of_headers, pe.size_of_headers) == (0x400, 0x600)
        for old, new in zip(pe0.sections, pe.sections):
            assert new.raw_offset == old.raw_offset + 0x200
            assert pe.data[new.raw_offset:new.raw_end] == \
                pe0.data[old.raw_offset:old.raw_end]
        assert pe.overlay == b"TRAILING"
        assert extract_imports(pe) == extract_imports(pe0)

        out, _ = extend_imports(pe, ["x.dll!y"])
        assert extract_imports(parse(out.data, strict=True)) == \
            extract_imports(pe0) | {"x.dll!y"}


class TestExtendImports:
    def test_union_of_tokens(self):
        pe = parse(synth_pe(basic_spec()))
        before = extract_imports(pe)
        out, skipped = extend_imports(pe, ["advapi32.dll!RegOpenKeyA",
                                           "kernel32.dll!GetTickCount"])
        assert skipped == []
        after = extract_imports(parse(out.data, strict=True))
        assert after == before | {"advapi32.dll!regopenkeya",
                                  "kernel32.dll!gettickcount"}

    def test_duplicates_skipped(self):
        pe = parse(synth_pe(basic_spec()))
        out, skipped = extend_imports(pe, ["KERNEL32.dll!CreateFileA",
                                           "new.dll!fresh"])
        assert skipped == ["KERNEL32.dll!CreateFileA"]
        assert "new.dll!fresh" in extract_imports(out)

    @pytest.mark.parametrize("tokens,skipped,added", [
        # an ordinal the image imports, its library in another case and the
        # ordinal with a leading zero
        (["USER32.dll!#017"], ["USER32.dll!#017"], set()),
        # one import named twice in one call (sorted, the first is kept)
        (["a.dll!g", "a.dll!g"], ["a.dll!g"], {"a.dll!g"}),
        (["a.dll!#5", "a.dll!#05"], ["a.dll!#5"], {"a.dll!#5"}),
        (["a.dll!f", "A.DLL!F"], ["a.dll!f"], {"a.dll!f"})])
    def test_each_import_written_once(self, tokens, skipped, added):
        pe = parse(synth_pe(basic_spec()))
        out, skipped_now = extend_imports(pe, tokens)
        assert skipped_now == skipped
        # every import of the image, as extract_imports renders it, repeats
        # kept
        written = [f"{d.library.lower()}!" + (
            f"#{e.ordinal}" if e.name is None else e.name.lower())
            for d in out.import_descriptors for e in d.entries]
        assert sorted(written) == sorted(extract_imports(pe) | added)

    def test_ordinal_injection(self):
        pe = parse(synth_pe(basic_spec()))
        out, _ = extend_imports(pe, ["ole32.dll!#7"])
        assert "ole32.dll!#7" in extract_imports(parse(out.data))

    def test_original_bytes_prefix_preserved(self):
        data = synth_pe(basic_spec())
        pe = parse(data)
        out, _ = extend_imports(pe, ["x.dll!y"])
        # header slack means no raw shift: old section payloads stay in place
        for old, new in zip(pe.sections, out.sections):
            assert old.raw_offset == new.raw_offset
            assert out.data[old.raw_offset:old.raw_end] == \
                data[old.raw_offset:old.raw_end]
        parse(out.data, strict=True)

    def test_pe64_extension(self):
        spec = basic_spec()
        spec.pe64 = True
        pe = parse(synth_pe(spec))
        out, _ = extend_imports(pe, ["shell32.dll!ShellExecuteA"])
        assert "shell32.dll!shellexecutea" in \
            extract_imports(parse(out.data, strict=True))

    def test_new_section_lies_past_every_raw_span(self):
        # a section alignment below the last section's raw size: the new
        # section's RVA must not fall inside that section's raw span, where
        # an RVA lookup would find the old section first
        data = bytearray(synth_pe(basic_spec()))
        pe = parse(bytes(data))
        struct.pack_into("<I", data, pe.opt_offset + 32, 0x100)
        pe = parse(bytes(data), strict=False)
        last = pe.sections[-1]
        assert last.virtual_size < last.raw_size
        out, _ = extend_imports(pe, ["x.dll!y"])
        assert out.sections[-1].virtual_address >= \
            last.virtual_address + last.raw_size
        assert extract_imports(parse(out.data, strict=True)) == \
            extract_imports(pe) | {"x.dll!y"}

    @pytest.mark.parametrize("token", [
        "lib.dll!#abc", "lib.dll!#", "lib.dll!#70000", "lib.dll!#65536",
        "lib.dll!#-1", "lib.dll!#+5", "lib.dll!# 5", "lib.dll!#1_0",
        "lib.dll!#\u0663", "lib.dll!#" + "9" * 5000, "lib.dll!", "!fn",
        "lib.dll!a\x00b", "lib\x00.dll!fn", "lib.dll!\u0100fn"])
    def test_malformed_token_rejected(self, token):
        pe = parse(synth_pe(basic_spec()))
        with pytest.raises(PeEditError) as exc:
            extend_imports(pe, ["ok.dll!fine", token])
        assert exc.value.kind == "invariant"
        with pytest.raises(PeEditError) as exc:
            synth_pe(SynthSpec(imports=[token]))
        assert exc.value.kind == "invariant"

    def test_ordinal_bounds_round_trip(self):
        tokens = ["lib.dll!#0", "lib.dll!#65535"]
        assert extract_imports(parse(synth_pe(SynthSpec(imports=tokens)))) \
            == set(tokens)
        out, _ = extend_imports(parse(synth_pe(basic_spec())), tokens)
        assert set(tokens) <= extract_imports(out)

    def test_tokens_group_by_library_ignoring_case(self):
        # two descriptors of one library: new tokens join the last
        old = [petk.ImportDescriptor("K.dll", [petk.ImportEntry(ordinal=1)]),
               petk.ImportDescriptor("k.DLL", [petk.ImportEntry(name="f",
                                                                hint=0x102)])]
        groups = petk._group_imports(
            ["A.dll!x", "b.dll!#3", "a.DLL!yz", "K.dll!g"], old)
        assert groups == [("K.dll", [1]),
                          ("k.DLL", [b"\x02\x01f\x00", b"\x00\x00g\x00"]),
                          ("A.dll", [b"\x00\x00x\x00", b"\x00\x00yz\x00"]),
                          ("b.dll", [3])]

    def test_each_editor_parses_once(self):
        pe = parse(synth_pe(basic_spec()))
        with mock.patch.object(petk, "parse", wraps=petk.parse) as counted:
            out, _ = extend_imports(pe, ["x.dll!y", "kernel32.dll!#9"])
            assert counted.call_count == 1
            sec = add_section(pe, ".x", b"yy")
            assert counted.call_count == 2
        assert out == parse(out.data, strict=True)
        assert sec == parse(sec.data, strict=True)

    def test_pe32_name_rva_with_the_ordinal_bit_rejected(self):
        # the import section's VirtualSize reaches past 2 GiB, so the new
        # section's hint/name RVAs would set the PE32 ordinal flag
        data = bytearray(synth_pe(basic_spec()))
        pe = parse(bytes(data))
        struct.pack_into("<I", data,
                         pe.section_table_offset + 40 * (len(pe.sections) - 1)
                         + 8, 0x80000098)
        pe = parse(bytes(data), strict=False)
        with pytest.raises(PeEditError):
            extend_imports(pe, ["x.dll!y"])


@contextlib.contextmanager
def address_space_limit(extra: int):
    """Cap this process's address space at its current size plus ``extra``
    bytes, so that allocating gigabytes fails at once with MemoryError."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (size + extra, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestUntrustedLayout:
    """Header values a lenient parse accepts and no new section can be laid
    out from: both editors raise PeEditError, and allocate nothing large
    on the way."""

    @pytest.mark.parametrize("field,value", [
        (lambda pe: pe.opt_offset + 32, 0),                  # SectionAlignment
        # a new section's SizeOfImage would not fit its 32-bit field
        (lambda pe: pe.opt_offset + 32, 0xab001000),
        (lambda pe: pe.opt_offset + 36, 0),                  # FileAlignment
        (lambda pe: pe.opt_offset + 36, 0x70000200),
        # the last section's SizeOfRawData, far past the end of the file
        (lambda pe: pe.section_table_offset + 40 * (len(pe.sections) - 1)
         + 16, 0x7C000000),
    ], ids=["section-align-0", "section-align-huge", "file-align-0",
            "file-align-huge", "raw-size-huge"])
    def test_editors_reject(self, field, value):
        data = bytearray(synth_pe(basic_spec()))
        struct.pack_into("<I", data, field(parse(bytes(data))), value)
        pe = parse(bytes(data), strict=False)
        with address_space_limit(256 << 20):
            with pytest.raises(PeEditError):
                add_section(pe, ".x", b"yy")
            with pytest.raises(PeEditError):
                extend_imports(pe, ["x.dll!y"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_specs_survive_all_editors(seed):
    rng = np.random.default_rng(seed)
    nsec = int(rng.integers(1, 4))
    sections = [SectionSpec(f".s{i}", size=int(rng.integers(16, 600)))
                for i in range(nsec)]
    imports = [f"lib{int(rng.integers(0, 5))}.dll!fn{int(rng.integers(0, 50))}"]
    strings = [f"marker-string-{int(rng.integers(0, 1000)):04d}"]
    spec = SynthSpec(sections=sections, imports=imports, strings=strings,
                     pe64=bool(rng.integers(0, 2)))
    data = synth_pe(spec, seed=seed)
    pe = parse(data, strict=True)
    assert pe.data == data

    out1 = add_section(pe, ".new", bytes(rng.integers(0, 256, size=32,
                                                      dtype=np.uint8)))
    parse(out1.data, strict=True)

    out2, _ = extend_imports(pe, ["fresh.dll!added"])
    assert "fresh.dll!added" in extract_imports(parse(out2.data, strict=True))

    counts = np.bincount(np.frombuffer(data, np.uint8), minlength=256)
    target = rng.dirichlet(np.full(256, 2.0))
    plan = padopt.plan_for(padopt.PaddingRequest(counts, target, gap=0.05))
    out3 = append_overlay(pe, plan)
    parse(out3.data, strict=True)


def mutant(seed: int) -> bytes:
    """A synthetic PE with 1-5 random bytes in its first KiB, one file in
    ten also truncated."""
    rng = np.random.default_rng(seed)
    spec = basic_spec()
    spec.pe64 = bool(rng.integers(0, 2))
    data = bytearray(synth_pe(spec, seed=seed))
    for _ in range(int(rng.integers(1, 6))):
        data[int(rng.integers(0, 1024))] = int(rng.integers(0, 256))
    if rng.random() < 0.1:
        data = data[:int(rng.integers(64, len(data)))]
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mutated_pe_parses_or_raises_parse_error(seed):
    """Lenient parsing of a mutant either succeeds or raises PeEditError,
    and feature extraction of the file never raises."""
    data = mutant(seed)
    try:
        parse(data, strict=False)
    except PeEditError:
        pass
    feats = harness.FileFeatures(data)
    assert feats.histogram.sum() == pytest.approx(1.0)
    assert isinstance(feats.import_tokens, set)
    assert all(len(s) >= 5 for s in feats.string_tokens)


def test_lenient_import_walk_keeps_what_it_read():
    """Over the mutants whose headers lenient-parse, a walk cut short is
    recorded and keeps the imports it read, so fewer mutants end with no
    import tokens than if such a walk lost them all."""
    empty = empty_all_or_nothing = 0
    for seed in range(2000):
        try:
            pe = parse(mutant(seed), strict=False)
        except PeEditError:
            continue
        tokens = extract_imports(pe)
        empty += not tokens
        empty_all_or_nothing += not tokens or not pe.imports_complete
        if not pe.imports_complete:
            assert any("import walk cut short" in a for a in pe.anomalies)
            with pytest.raises(PeEditError):
                parse(pe.data, strict=True)
    assert empty < empty_all_or_nothing


def test_overlay_on_a_cut_short_import_walk_keeps_the_imports():
    """Over the mutants whose import walk was cut short, padding either
    raises or leaves the strict re-parse with the original import set; it
    never reads the padding as imports. Seeds 126, 264, 1015 and 1861 are
    such mutants whose padded file once gained import tokens."""
    cut_short = []
    for seed in range(2000):
        data = mutant(seed)
        try:
            pe = parse(data, strict=False)
        except PeEditError:
            continue
        if pe.imports_complete:
            continue
        cut_short.append(seed)
        counts = np.bincount(np.frombuffer(data, np.uint8), minlength=256)
        target = np.random.default_rng(seed).dirichlet(np.full(256, 2.0))
        plan = padopt.plan_for(padopt.PaddingRequest(counts, target, gap=0.05))
        try:
            out = append_overlay(pe, plan)
        except PeEditError as exc:
            assert exc.kind == "invariant"
            continue
        assert extract_imports(parse(out.data, strict=True)) \
            == extract_imports(pe)
    assert {126, 264, 1015, 1861} <= set(cut_short)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mutated_pe_editors_raise_or_reparse(seed):
    """On a mutant that lenient-parses, each editor either raises
    PeEditError or returns bytes that strict-re-parse, and allocates
    nothing large on the way. A new section adds at most its content and
    two file alignments and keeps the imports; a rebuilt import directory
    holds a superset of them; an overlay keeps the file as its prefix."""
    data = mutant(seed)
    try:
        pe = parse(data, strict=False)
    except PeEditError:
        return
    content = b"\x90" * (seed % 300)
    counts = np.bincount(np.frombuffer(data, np.uint8), minlength=256)
    target = np.random.default_rng(seed).dirichlet(np.full(256, 2.0))
    plan = padopt.plan_for(padopt.PaddingRequest(counts, target, gap=0.05))
    edits = [lambda: add_section(pe, ".new", content),
             lambda: extend_imports(pe, ["fresh.dll!added"])[0],
             lambda: append_overlay(pe, plan)]
    imports = extract_imports(pe)
    for i, edit in enumerate(edits):
        try:
            with address_space_limit(256 << 20):
                out = edit()
        except PeEditError:
            continue
        after = extract_imports(parse(out.data, strict=True))
        if i == 0:
            assert len(out.data) <= len(data) + len(content) + 2 * pe.file_align
            assert after == imports
        elif i == 1:
            assert after >= imports | {"fresh.dll!added"}
        else:
            assert out.data.startswith(data)


# --- the import walk against a linear first-match oracle --------------------

def linear_rva_to_offset(pe, rva: int) -> int:
    """Each RVA resolved on its own by a scan of the section table: the
    headers map to themselves, then the first section whose span (the
    larger of its virtual and raw sizes) holds the RVA wins."""
    if rva < pe.size_of_headers:
        return rva
    for s in pe.sections:
        if s.virtual_address <= rva < s.virtual_address + max(s.virtual_size,
                                                               s.raw_size):
            return s.raw_offset + (rva - s.virtual_address)
    raise PeEditError("parse", rva, f"RVA {rva:#x} maps to no section")


def linear_import_walk(pe, descriptors):
    """The import directory walk into ``descriptors`` with every RVA
    resolved by ``linear_rva_to_offset``."""
    if len(pe.data_dirs) <= petk.DIR_IMPORT or pe.data_dirs[petk.DIR_IMPORT][0] == 0:
        return
    rva = pe.data_dirs[petk.DIR_IMPORT][0]
    data = pe.data
    thunk_size = 8 if pe.is_pe64 else 4
    ordinal_flag = 1 << (thunk_size * 8 - 1)
    idx = 0
    while True:
        off = linear_rva_to_offset(pe, rva + 20 * idx)
        if off + 20 > len(data):
            raise PeEditError("parse", off, "import descriptor out of range")
        ilt, _ts, _fc, name_rva, iat = petk._unpack("<IIIII", data, off)
        if ilt == 0 and name_rva == 0 and iat == 0:
            break
        desc = petk.ImportDescriptor(library=petk._read_cstring(
            data, linear_rva_to_offset(pe, name_rva)))
        descriptors.append(desc)
        thunk_rva = ilt or iat
        j = 0
        while True:
            toff = linear_rva_to_offset(pe, thunk_rva + thunk_size * j)
            (value,) = petk._unpack("<Q" if pe.is_pe64 else "<I", data, toff)
            if value == 0:
                break
            if value & ordinal_flag:
                desc.entries.append(petk.ImportEntry(ordinal=value & 0xFFFF))
            else:
                hoff = linear_rva_to_offset(pe, value)
                (hint,) = petk._unpack("<H", data, hoff)
                desc.entries.append(petk.ImportEntry(
                    name=petk._read_cstring(data, hoff + 2), hint=hint))
            j += 1
            if j > 4096:
                raise PeEditError("parse", toff, "unterminated import thunk table")
        idx += 1
        if idx > 4096:
            raise PeEditError("parse", off, "unterminated import descriptor table")


def parse_outcome(data: bytes, strict: bool):
    """The import descriptors of a parse, or the kind and offset of its
    PeEditError."""
    try:
        return parse(data, strict=strict).import_descriptors
    except PeEditError as exc:
        return exc.kind, exc.offset


def assert_walk_matches_oracle(data: bytes) -> None:
    for strict in (True, False):
        got = parse_outcome(data, strict)
        with mock.patch.object(petk, "_parse_imports", linear_import_walk):
            assert got == parse_outcome(data, strict)


def overlapping_spans_pe() -> bytes:
    """The first section's span is moved over the hint/name tail of the
    import section and maps it to a case-swapped copy appended to the file:
    first match in table order reads the swapped names."""
    data = synth_pe(basic_spec())
    pe = parse(data)
    idata = pe.sections[-1]
    # the first thunk of the first ILT points at the start of the hint/names
    ilt = struct.unpack_from("<I", data, pe.rva_to_offset(idata.virtual_address))[0]
    (first_name,) = struct.unpack_from("<I", data, pe.rva_to_offset(ilt))
    cut = first_name - idata.virtual_address
    tail = data[idata.raw_offset + cut:idata.raw_offset + idata.virtual_size]
    raw_at = len(data)
    assert raw_at % pe.file_align == 0
    buf = bytearray(data + tail.swapcase() + bytes(-len(tail) % pe.file_align))
    struct.pack_into("<IIII", buf, pe.section_table_offset + 8,
                     len(tail), first_name, len(buf) - raw_at, raw_at)
    return bytes(buf)


def import_directory_in_headers_pe() -> bytes:
    """The import descriptors copied into the header slack past the section
    table, and the import directory pointed there: an RVA below
    SizeOfHeaders is its own offset."""
    data = synth_pe(basic_spec())
    pe = parse(data)
    rva, size = pe.data_dirs[petk.DIR_IMPORT]
    at = pe.section_table_offset + petk.SECTION_HEADER_SIZE * len(pe.sections)
    assert at + size <= pe.size_of_headers
    buf = bytearray(data)
    off = pe.rva_to_offset(rva)
    buf[at:at + size] = data[off:off + size]
    ndirs_off = pe.opt_offset + 92
    struct.pack_into("<I", buf, ndirs_off + 4 + 8 * petk.DIR_IMPORT, at)
    return bytes(buf)


class TestImportWalkOracle:
    def test_overlapping_spans_first_section_wins(self):
        data = overlapping_spans_pe()
        with pytest.raises(PeEditError):
            parse(data, strict=True)
        names = [(d.library, [e.name for e in d.entries])
                 for d in parse(data, strict=False).import_descriptors]
        assert names == [
            (d.library.swapcase(), [e.name and e.name.swapcase() for e in d.entries])
            for d in parse(synth_pe(basic_spec())).import_descriptors]
        assert_walk_matches_oracle(data)

    def test_import_directory_below_size_of_headers(self):
        data = import_directory_in_headers_pe()
        pe = parse(data, strict=True)
        assert pe.data_dirs[petk.DIR_IMPORT][0] < pe.size_of_headers
        assert pe.import_descriptors == \
            parse(synth_pe(basic_spec())).import_descriptors
        assert_walk_matches_oracle(data)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_mutants_walk_like_the_oracle(self, seed):
        assert_walk_matches_oracle(mutant(seed))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 24),
       st.lists(st.tuples(st.integers(0, 64), st.integers(0, 24),
                          st.integers(0, 24), st.integers(0, 256)),
                max_size=6))
def test_rva_run_agrees_with_the_linear_scan(size_of_headers, sections):
    """Over small, often overlapping section tables: every RVA resolves as
    the linear scan does, and every RVA of the run ``rva_run`` reports
    resolves by the run's delta."""
    pe = petk.PeImage(
        data=b"", is_pe64=False, e_lfanew=0, size_of_optional=0,
        section_align=1, file_align=1, size_of_image=0,
        size_of_headers=size_of_headers, data_dirs=[],
        sections=[petk.Section(f".s{i}", vsize, va, rsize, raw, 0)
                  for i, (va, vsize, rsize, raw) in enumerate(sections)],
        import_descriptors=[], overlay_offset=0)
    for rva in range(100):
        try:
            expected = linear_rva_to_offset(pe, rva)
        except PeEditError as exc:
            with pytest.raises(PeEditError) as got:
                pe.rva_run(rva)
            assert (got.value.kind, got.value.offset) == (exc.kind, exc.offset)
            continue
        assert pe.rva_to_offset(rva) == expected
        lo, hi, delta = pe.rva_run(rva)
        assert lo <= rva < hi
        for r in range(lo, min(hi, 100)):
            assert linear_rva_to_offset(pe, r) == r + delta


# --- the import directory writer against the one it replaced ---------------

def reference_import_blob(descriptors, base_rva: int, is_pe64: bool):
    """The import directory writer before it was made one pass: offsets
    laid out first, then every thunk packed twice, once into the ILT and
    once into the IAT."""
    thunk_size = 8 if is_pe64 else 4
    ordinal_flag = 1 << (thunk_size * 8 - 1)
    desc_bytes = 20 * (len(descriptors) + 1)

    cursor = desc_bytes
    thunk_offsets = []
    for desc in descriptors:
        ilt_off = cursor
        cursor += thunk_size * (len(desc.entries) + 1)
        iat_off = cursor
        cursor += thunk_size * (len(desc.entries) + 1)
        thunk_offsets.append((ilt_off, iat_off))

    hint_name_offsets = []
    hint_blob = bytearray()
    for desc in descriptors:
        offs = []
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
        petk._pack("<IIIII", blob, 20 * i, base_rva + ilt_off, 0, 0,
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
            petk._pack(fmt, blob, ilt_off + thunk_size * j, value)
            petk._pack(fmt, blob, iat_off + thunk_size * j, value)
    blob[cursor - len(name_blob) - len(hint_blob):cursor - len(name_blob)] = hint_blob
    blob[cursor - len(name_blob):cursor] = name_blob
    return bytes(blob), desc_bytes


def blob_outcome(write, *args):
    """A writer's (bytes, directory size), or the kind of its PeEditError."""
    try:
        return write(*args)
    except PeEditError as exc:
        return exc.kind


latin1_text = st.text(st.characters(min_codepoint=1, max_codepoint=255),
                      max_size=9)
import_entries = st.one_of(
    st.builds(lambda o: petk.ImportEntry(ordinal=o), st.integers(0, 0xFFFF)),
    st.builds(lambda n, h: petk.ImportEntry(name=n, hint=h), latin1_text,
              st.integers(0, 0xFFFF)))
import_directories = st.lists(
    st.builds(petk.ImportDescriptor, latin1_text,
              st.lists(import_entries, max_size=6)), max_size=5)
base_rvas = st.one_of(st.integers(0x1000, 0x100000).map(lambda r: r & ~0xFFF),
                      st.integers(2**31 - 512, 2**31 + 16),
                      st.integers(2**32 - 512, 2**32 + 16))


@settings(max_examples=400, deadline=None)
@given(import_directories, base_rvas, st.booleans())
def test_import_blob_matches_the_two_pass_writer(descriptors, base_rva, is_pe64):
    """PE32 and PE32+, name and ordinal entries, names of odd and even
    length, libraries with no entries, and base RVAs up to and past where a
    name RVA reads as an ordinal or a field overflows: the one-pass writer
    gives the reference bytes and directory size, or its error kind."""
    expected = blob_outcome(reference_import_blob, descriptors, base_rva,
                            is_pe64)
    got = blob_outcome(petk._build_import_blob,
                       petk._group_imports([], descriptors), base_rva, is_pe64)
    assert got == expected


def test_import_blob_examples_cover_every_case():
    """The cases the property draws, pinned: an empty library, odd and even
    names, and a PE32 name RVA that reads as an ordinal."""
    descriptors = [
        petk.ImportDescriptor("empty.dll", []),
        petk.ImportDescriptor("a.dll", [petk.ImportEntry(name="odd", hint=3),
                                        petk.ImportEntry(ordinal=9),
                                        petk.ImportEntry(name="even", hint=4)])]
    for is_pe64 in (False, True):
        for base_rva in (0x3000, 2**31 - 64, 2**32 - 64):
            expected = blob_outcome(reference_import_blob, descriptors,
                                    base_rva, is_pe64)
            assert blob_outcome(petk._build_import_blob,
                                petk._group_imports([], descriptors),
                                base_rva, is_pe64) == expected
    assert blob_outcome(reference_import_blob, descriptors, 2**31 - 64,
                        False) == "capacity"
    assert blob_outcome(reference_import_blob, descriptors, 2**32 - 64,
                        True) == "capacity"
