"""``python -m repro.fuzz`` end-to-end: determinism, resume, planted
bugs, and the files it writes."""

import json

import pytest

from repro.fuzz import main
from repro.runner import journal_digest


def _run(tmp_path, *extra, systems=8, seed=0, journal=None):
    argv = [
        "--systems", str(systems), "--seed", str(seed), "--jobs", "1",
        "--artifacts", str(tmp_path / "artifacts"),
    ]
    if journal is not None:
        argv += ["--journal", str(journal)]
    argv += list(extra)
    return main(argv)


def test_same_seed_runs_produce_byte_identical_journals(tmp_path):
    j1, j2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert _run(tmp_path, journal=j1) == 0
    assert _run(tmp_path, journal=j2) == 0
    assert j1.read_bytes() == j2.read_bytes()
    assert j1.stat().st_size > 0


def test_different_seed_changes_the_journal(tmp_path):
    j1, j2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert _run(tmp_path, journal=j1, seed=0) == 0
    assert _run(tmp_path, journal=j2, seed=1) == 0
    assert j1.read_bytes() != j2.read_bytes()


def test_journal_digest_printed_and_stable(tmp_path, capsys):
    j1 = tmp_path / "one.jsonl"
    _run(tmp_path, journal=j1)
    first = capsys.readouterr().out
    _run(tmp_path, journal=tmp_path / "two.jsonl")
    second = capsys.readouterr().out

    def digest(text):
        lines = [l for l in text.splitlines() if "journal digest:" in l]
        assert len(lines) == 1
        return lines[0].split()[-1]

    assert digest(first) == digest(second) == journal_digest(j1)


def test_resume_replays_everything(tmp_path, capsys):
    journal = tmp_path / "campaign.jsonl"
    assert _run(tmp_path, journal=journal) == 0
    before = journal.read_bytes()
    capsys.readouterr()
    assert _run(tmp_path, journal=journal, *("--resume",)) == 0
    out = capsys.readouterr().out
    assert "8 replayed" in out
    assert journal.read_bytes() == before  # replays append nothing


def test_planted_sign_flip_fails_campaign_with_artifacts(tmp_path, capsys):
    assert _run(tmp_path, "--plant") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    failures = tmp_path / "artifacts" / "failures.jsonl"
    entries = [
        json.loads(line) for line in failures.read_text().splitlines()
    ]
    assert entries
    # Every failure shrank to the smallest dimension its kind allows.
    for entry in entries:
        assert entry["minimal"]["n"] == 1
        assert entry["disagreements"]
    npz = list((tmp_path / "artifacts").glob("*.npz"))
    assert len(npz) == len(entries)


def test_clean_campaign_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run(tmp_path) == 0
    assert "fuzz[quick]: 8 systems" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_replay_flag_runs_one_spec(capsys):
    assert main(["--replay", "stable:2:5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"] == {"kind": "stable", "n": 2, "seed": 5}
    assert payload["failed"] is False


def test_bad_replay_spec_exits_with_usage_error():
    with pytest.raises(SystemExit):
        main(["--replay", "not-a-spec"])


def test_coverage_ratchet_file_is_wellformed():
    # CI reads the floor from this file; a malformed edit should fail
    # here, locally, not in the coverage job.
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / ".coverage-ratchet.json"
    data = json.loads(path.read_text())
    assert 0 < data["line_floor"] <= 100
