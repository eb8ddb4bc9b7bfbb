"""Tests for the build and load of the compiled kernels (repro.kernels)."""
import pytest

from repro import kernels


class TestBuild:
    def test_missing_compiler_raises_clear_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kernels, "CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(kernels, "CACHE_DIR", tmp_path / "cache")
        with pytest.raises(RuntimeError, match="needs a C compiler"):
            kernels.load()
        assert list((tmp_path / "cache").iterdir()) == []  # no half-built entry

    def test_changed_source_builds_new_entry(self, monkeypatch, tmp_path):
        cache = tmp_path / "cache"
        monkeypatch.setattr(kernels, "CACHE_DIR", cache)
        kernels.load()
        (first,) = cache.iterdir()
        (tmp_path / "kernels.h").write_bytes(kernels.HEADER.read_bytes())
        changed = tmp_path / "kernels.c"
        changed.write_bytes(kernels.SOURCE.read_bytes() + b"\n/* changed */\n")
        monkeypatch.setattr(kernels, "SOURCE", changed)
        kernels.load()
        kernels.load()  # the second load of the same source is a cache hit
        entries = sorted(cache.iterdir())
        assert len(entries) == 2 and first in entries
        assert not any(p.name.startswith(".build-") for p in entries)
