"""The corpus generator still runs against the package's API and writes
exactly the bundled corpus, byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def test_generator_reproduces_the_corpus(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("gen_corpus", ROOT / "scripts" / "gen_corpus.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", tmp_path)
    gen.main()
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(p.name for p in CORPUS.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (CORPUS / name).read_bytes(), name
