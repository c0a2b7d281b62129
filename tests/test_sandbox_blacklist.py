"""Compile-time blacklist scanning (paper Section III-D)."""

import pytest

from repro.sandbox import BlacklistScanner, BlacklistViolation, ScanMode
from repro.sandbox.blacklist import strip_comments_and_strings


class TestRawMode:
    def test_detects_asm(self):
        scanner = BlacklistScanner()
        matches = scanner.scan('int main() { asm("nop"); }')
        assert [m.entry for m in matches] == ["asm"]

    def test_detects_multiple(self):
        scanner = BlacklistScanner()
        matches = scanner.scan("fork(); system(\"ls\");")
        assert {m.entry for m in matches} == {"fork", "system"}

    def test_positions_are_accurate(self):
        scanner = BlacklistScanner()
        match = scanner.scan("int x;\n  asm();\n")[0]
        assert (match.line, match.column) == (2, 3)

    def test_substrings_do_not_match(self):
        scanner = BlacklistScanner()
        # identifiers merely containing blacklisted words are fine
        assert scanner.scan("int asmx; float my_fork; int systems;") == []

    def test_matches_even_in_comments(self):
        """The paper: 'This method rejects code which contains the black
        listed functions even within comments.'"""
        scanner = BlacklistScanner(mode=ScanMode.RAW)
        assert scanner.scan("// never call asm() here\nint x;") != []

    def test_matches_in_strings_raw(self):
        scanner = BlacklistScanner(mode=ScanMode.RAW)
        assert scanner.scan('char *s = "asm";') != []

    def test_check_raises_with_all_matches(self):
        scanner = BlacklistScanner()
        with pytest.raises(BlacklistViolation) as exc:
            scanner.check("asm(); fork();")
        assert len(exc.value.matches) == 2

    def test_clean_code_passes(self):
        BlacklistScanner().check("__global__ void k(float *a) { a[0] = 1.0f; }")

    def test_backslash_newline_cannot_split_a_name(self):
        """The preprocessor splices ``sys\\<newline>tem`` back together."""
        scanner = BlacklistScanner()
        for newline in ("\n", "\r\n"):
            match, = scanner.scan(f"int x;\n  sys\\{newline}te\\{newline}m(\"ls\");")
            assert (match.entry, match.line, match.column) == ("system", 2, 3)
        # spliced, these are longer identifiers that only contain a name
        assert scanner.scan("int fork\\\ns; int asm\\\n\\\n_x;") == []


class TestPreprocessedMode:
    def test_comments_no_longer_trigger(self):
        scanner = BlacklistScanner(mode=ScanMode.PREPROCESSED)
        assert scanner.scan("// about asm() usage\nint x;") == []

    def test_strings_no_longer_trigger(self):
        scanner = BlacklistScanner(mode=ScanMode.PREPROCESSED)
        assert scanner.scan('char *s = "call asm here";') == []

    def test_real_call_still_caught(self):
        scanner = BlacklistScanner(mode=ScanMode.PREPROCESSED)
        assert scanner.scan("/* fine */ asm(\"nop\");") != []

    def test_macro_hiding_caught_with_preprocessor(self):
        """A #define can smuggle a name past a raw scan of post-stripped
        text; plugging the minicuda preprocessor in defeats it."""
        from repro.minicuda import preprocess
        source = "#define DO_IT asm\nint main() { DO_IT(\"nop\"); }\n"
        naive = BlacklistScanner(mode=ScanMode.RAW,
                                 entries=["asm("])  # exact-call pattern
        # raw scan of the *unexpanded* text misses the call site
        assert all(m.line == 1 for m in naive.scan(source))
        expanded = BlacklistScanner(mode=ScanMode.PREPROCESSED,
                                    preprocessor=preprocess)
        assert any(m.entry == "asm" for m in expanded.scan(source))


class TestStripper:
    def test_preserves_newlines(self):
        out = strip_comments_and_strings("a /* x\ny */ b // c\nd")
        assert out.count("\n") == 2

    def test_strings_with_escapes(self):
        out = strip_comments_and_strings(r'char *s = "a\"b"; int x;')
        assert '"' not in out.replace(" ", "")[10:] or "int x;" in out

    def test_custom_entries(self):
        scanner = BlacklistScanner(entries=["mmap"])
        assert scanner.scan("mmap(0, 4096);") != []
        assert scanner.scan("asm();") == []
