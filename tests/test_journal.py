"""Tests for the crash-safe result journal (repro.runner.journal).

Property-based coverage of the tagged encoding (exact round-trip),
fingerprint stability (including across processes), and the torn-line
tolerance that makes mid-write crashes recoverable.
"""

import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.records import (
    Figure3Record,
    PiecewiseRecord,
    Table1Record,
)
from repro.runner import (
    JOURNAL_SALT,
    Journal,
    Task,
    task_fingerprint,
)
from repro.runner.journal import decode_value, encode_value

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


#: A CegisTask journal line byte for byte as commit ``8d9fd72`` wrote
#: it: its pickled ``CegisRecord`` carries a refute-phase timer field
#: that the class no longer declares, so replay must skip it.
PARENT_CEGIS_LINE = (
    b'{"v":1,"fp":"fp0","kind":"CegisTask","status":"ok","attempts":1,'
    b'"error":null,"result":{"__pkl__":"'
    b"gAWVRQEAAAAAAACMGXJlcHJvLmV4cGVyaW1lbnRzLnJlY29yZHOUjAtDZWdpc1Jl"
    b"Y29yZJSTlCmBlH2UKIwEY2FzZZSMBXNpemUzlIwEc2l6ZZRLA4wGcmVnaW1llIwK"
    b"YXR0cmFjdGluZ5SMCXN5bnRoZXNpc5SMBGZ1bGyUjARzbmFwlIwKc3RydWN0dXJl"
    b"ZJSMBnN0YXR1c5SMCXZhbGlkYXRlZJSMBnJvdW5kc5RLAYwEY3V0c5RLAGgPiIwR"
    b"cHJvdmVkX2luZmVhc2libGWUiYwKc3ludGhfdGltZZRHP+AAAAAAAACMC3Zlcmlm"
    b"eV90aW1llEc/uZmZmZmZmowLcmVmdXRlX3RpbWWURwAAAAAAAAAAjAp0b3RhbF90"
    b"aW1llEc/4zMzMzMzM4wGZGlnZXN0lIwCYWKUjA1mYWlsZWRfY2hlY2tzlF2UdWIu"
    b'"}}\n'
)


class SpecTask(Task):
    """A task whose fingerprint spec is exactly its constructor kwargs."""

    def __init__(self, **spec):
        for key, value in spec.items():
            setattr(self, key, value)

    def run(self):  # pragma: no cover - never executed here
        return None


# ----------------------------------------------------------------------
# Strategies: the closed set of payload types runner results are made of
# ----------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False),  # inf is fine: json round-trips it
    st.text(max_size=20),
    st.fractions(),
)


def payloads(depth=3):
    if depth == 0:
        return scalars
    inner = payloads(depth - 1)
    return st.one_of(
        scalars,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
        st.dictionaries(
            st.tuples(st.text(max_size=4), st.integers()), inner, max_size=3
        ),
    )


class TestEncoding:
    @settings(max_examples=150)
    @given(payloads())
    def test_round_trip_exact(self, value):
        encoded = encode_value(value)
        # The encoding must actually be JSON-serializable...
        wire = json.dumps(encoded)
        # ...and decode back to an equal value of the same shape.
        decoded = decode_value(json.loads(wire))
        assert decoded == value
        assert type(decoded) is type(value)

    @settings(max_examples=50)
    @given(st.fractions())
    def test_fraction_exactness(self, value):
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert isinstance(decoded, Fraction)
        assert decoded == value

    def test_numpy_array_round_trip(self):
        array = np.array([[1.5, -2.25], [0.1, 3e-300]])
        decoded = decode_value(json.loads(json.dumps(encode_value(array))))
        assert decoded.dtype == array.dtype
        assert np.array_equal(decoded, array)

    def test_record_dataclass_round_trip(self):
        record = Table1Record(
            case="size3", size=3, mode=0, method="lmi", backend="ipm",
            synth_time=0.125, synth_status="ok", valid=True,
            validation_time=0.5, sigfigs=10,
            degraded=[{"stage": "positivity", "kind": "kernel-backend"}],
        )
        decoded = decode_value(json.loads(json.dumps(encode_value(record))))
        assert decoded == record
        assert isinstance(decoded, Table1Record)

    def test_tuple_of_records_round_trip(self):
        # Table1Task results are (record, candidate-or-None) tuples.
        record = Figure3Record(
            case="size3", size=3, mode=1, method="eq-num", backend=None,
            validator="sylvester", valid=True, time=0.25,
        )
        value = (record, None)
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert decoded == value
        assert isinstance(decoded, tuple)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

spec_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(max_size=10),
    st.none(),
    st.booleans(),
    st.fractions(),
)
spec_dicts = st.dictionaries(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll",)),
        min_size=1, max_size=8,
    ),
    spec_values,
    min_size=1,
    max_size=5,
)


class TestFingerprints:
    @settings(max_examples=100)
    @given(spec_dicts)
    def test_same_spec_same_fingerprint(self, spec):
        assert task_fingerprint(SpecTask(**spec)) == task_fingerprint(
            SpecTask(**spec)
        )

    @settings(max_examples=100)
    @given(spec_dicts, spec_values)
    def test_any_field_change_changes_fingerprint(self, spec, new_value):
        base = task_fingerprint(SpecTask(**spec))
        for key in spec:
            if spec[key] == new_value:
                continue
            changed = dict(spec, **{key: new_value})
            assert task_fingerprint(SpecTask(**changed)) != base

    def test_extra_field_changes_fingerprint(self):
        assert task_fingerprint(SpecTask(a=1)) != task_fingerprint(
            SpecTask(a=1, b=None)
        )

    def test_kind_participates(self):
        class OtherTask(SpecTask):
            pass

        assert task_fingerprint(SpecTask(a=1)) != task_fingerprint(
            OtherTask(a=1)
        )

    def test_stable_across_processes(self):
        """No hash() randomization: a fresh interpreter (fresh
        PYTHONHASHSEED) derives the identical digest."""
        spec = {"case": "size10i", "mode": 1, "sigfigs": 6}
        local = task_fingerprint(SpecTask(**spec))
        code = (
            "import json, sys; sys.path.insert(0, 'src')\n"
            "from tests.test_journal import SpecTask\n"
            "from repro.runner import task_fingerprint\n"
            f"print(task_fingerprint(SpecTask(**{spec!r})))"
        )
        for seed in ("0", "1", "random"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, cwd=REPO_ROOT,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src:."},
            )
            assert out.stdout.strip() == local

    def test_salt_is_versioned(self):
        assert JOURNAL_SALT.rsplit("/", 1)[-1].isdigit()


# ----------------------------------------------------------------------
# Durability / torn lines
# ----------------------------------------------------------------------

class TestJournalFile:
    def test_record_and_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("fp1", "Echo", "ok", {"x": Fraction(1, 3)})
            journal.record("fp2", "Echo", "error", None,
                           attempts=3, error={"exc": "boom"})
        with Journal(path, resume=True) as journal:
            assert len(journal) == 2
            assert journal.get("fp1").result == {"x": Fraction(1, 3)}
            entry = journal.get("fp2")
            assert entry.status == "error"
            assert entry.attempts == 3
            assert entry.error == {"exc": "boom"}

    def test_truncate_without_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("fp1", "Echo", "ok", 1)
        with Journal(path, resume=False) as journal:
            assert len(journal) == 0
        with Journal(path, resume=True) as journal:
            assert len(journal) == 0

    def test_last_write_wins_on_duplicates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("fp1", "Echo", "ok", "old")
            journal.record("fp1", "Echo", "ok", "new")
        with Journal(path, resume=True) as journal:
            assert journal.get("fp1").result == "new"

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=80))
    def test_torn_trailing_line_tolerated(self, tmp_path_factory, cut):
        """A crash mid-write leaves a truncated last line: every intact
        entry still replays, the torn one is simply missing."""
        path = tmp_path_factory.mktemp("journal") / "j.jsonl"
        with Journal(path) as journal:
            journal.record("fp1", "Echo", "ok", [1, 2, 3])
            journal.record("fp2", "Echo", "ok", {"deep": (1, Fraction(2, 7))})
        data = path.read_bytes()
        assert data.endswith(b"\n")
        torn = data + data.splitlines(keepends=True)[-1][:cut].rstrip(b"\n")
        path.write_bytes(torn)
        with Journal(path, resume=True) as journal:
            assert len(journal) == 2
            assert "fp1" in journal and "fp2" in journal

    def test_corrupt_interior_line_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("fp1", "Echo", "ok", 1)
        raw = path.read_bytes()
        path.write_bytes(
            b'{"not": "an entry"}\n' + b"garbage{{{\n"
            + PARENT_CEGIS_LINE + raw
        )
        with Journal(path, resume=True) as journal:
            assert len(journal) == 1
            assert journal.get("fp1").result == 1

    def test_record_corrupt_writes_torn_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("fp1", "Echo", "ok", 1)
            journal.record_corrupt("fp2", "Echo")
        with Journal(path, resume=True) as journal:
            assert "fp1" in journal
            assert "fp2" not in journal  # torn record is not replayable

    def test_append_after_torn_tail_does_not_splice(self, tmp_path):
        """Resuming over a torn trailing line must trim it: otherwise
        the first record appended afterwards merges into the garbage
        and a *good* entry is lost on the following resume."""
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("fp1", "Echo", "ok", 1)
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"fp":"torn","sta')  # crash mid-write
        with Journal(path, resume=True) as journal:
            assert len(journal) == 1
            journal.record("fp2", "Echo", "ok", 2)
        with Journal(path, resume=True) as journal:
            assert len(journal) == 2
            assert journal.get("fp2").result == 2

    def test_missing_file_resume_is_empty(self, tmp_path):
        with Journal(tmp_path / "absent.jsonl", resume=True) as journal:
            assert len(journal) == 0

    def test_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("fp1", "Echo", "ok", {"nested": [1, (2, 3)]})
            journal.record("fp2", "Echo", "ok", "x")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["v"] == 1 for line in lines)


class TestRunTasksReplay:
    def test_replay_skips_completed_and_fills_gaps(self, tmp_path):
        from repro.runner import CampaignStats, run_tasks
        from tests.test_runner import EchoTask

        path = tmp_path / "j.jsonl"
        tasks = [EchoTask(i) for i in range(6)]
        with Journal(path) as journal:
            first = run_tasks(tasks[:3], journal=journal)
        assert first == [0, 1, 2]
        stats = CampaignStats()
        with Journal(path, resume=True) as journal:
            # drop one entry to create an interior gap
            fp = journal.fingerprint(tasks[1])
            del journal._entries[fp]
            results = run_tasks(tasks, journal=journal, stats=stats)
        assert results == list(range(6))
        assert stats.replayed == 2
        assert stats.executed == 4

    def test_cegis_record_journaled_as_tagged_json(self, tmp_path):
        from repro.runner import CampaignStats, CegisTask, run_tasks

        def task():
            return CegisTask(
                "size3", 3, "attracting", synthesis="full",
                max_iterations=6_000,
            )

        path = tmp_path / "cegis.jsonl"
        with Journal(path) as journal:
            [record] = run_tasks([task()], journal=journal)
        [line] = path.read_text().splitlines()
        assert json.loads(line)["result"]["__rec__"] == "CegisRecord"
        stats = CampaignStats()
        with Journal(path, resume=True) as journal:
            [replayed] = run_tasks([task()], journal=journal, stats=stats)
        assert (stats.replayed, stats.executed) == (1, 0)
        assert replayed == record

    def test_piecewise_line_with_phase_timers_reruns(self, tmp_path):
        # A PiecewiseRecord journaled while it still carried its
        # ``phases`` timers or its ``solver`` no longer decodes, so
        # resume re-runs it.
        record = PiecewiseRecord(
            case="size3", size=3, encoding="continuous",
            lmi_feasible=False, proved_infeasible=False, iterations=1,
            synth_time=0.5, validation_valid=None,
        )
        for field_name, value in (("phases", {}), ("solver", "hybrid")):
            payload = encode_value(record)
            payload["f"][field_name] = encode_value(value)
            path = tmp_path / f"{field_name}.jsonl"
            path.write_text(json.dumps({
                "v": 1, "fp": "fp0", "kind": "PiecewiseTask",
                "status": "ok", "attempts": 1, "error": None,
                "result": payload,
            }) + "\n")
            with Journal(path, resume=True) as journal:
                assert "fp0" not in journal, field_name
