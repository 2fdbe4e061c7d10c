import copy
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorint.harmonic import ModularHarmonicSum
from mirrorint.padic import primes_upto
from mirrorint.series import _int_str_digits
from mirrorint.sieve import (
    BACKEND_MODULAR,
    TARGET_H,
    TARGET_H1,
    VALUATION_CAP,
    CheckpointError,
    SieveCheckpoint,
    SieveRecord,
    SieveRun,
    canonical_json,
)
from oracles import exact_sieve


def run(p, max_N, target=TARGET_H, checkpoint=None):
    r = SieveRun(p, max_N, target, checkpoint=checkpoint)
    return list(r), r


def modular_sieve(p, max_N, target):
    return run(p, max_N, target)[0]


# The two sieves each known set is read off: the exact oracle, which sums
# every H_N as a Fraction, and SieveRun.
SIEVES = [pytest.param(exact_sieve, id="exact"), pytest.param(modular_sieve, id="modular")]


def per_index_sieve(p, max_N, target):
    """SieveRun as one move per index: every N up to max_N is visited, and
    the state is read where the parent N // p is positive."""
    state = ModularHarmonicSum(p, cap=VALUATION_CAP)
    positive = set()
    records = []
    for n in range(1, max_N + 1):
        state.advance_to(n)
        parent = n // p
        if parent and parent not in positive:
            continue
        v, at_least = state.valuation()
        if v >= 1:
            positive.add(n)
        if target == TARGET_H:
            if v >= 1:
                records.append(SieveRecord(p, n, v, at_least, target))
        elif n > 1:
            v1, at_least1 = state.valuation(shifted=True)
            if v1 >= 1:
                records.append(SieveRecord(p, n, v1, at_least1, target))
    checkpoint = SieveCheckpoint(
        p=p,
        target=target,
        backend=BACKEND_MODULAR,
        last_N=max_N,
        state={"queue": [x for x in sorted(positive | {0}) if x * p + p - 1 > max_N]},
    )
    return records, checkpoint


class TestKnownSets:
    @pytest.mark.parametrize("sieve", SIEVES)
    def test_p3_H(self, sieve):
        records = sieve(3, 1000, TARGET_H)
        assert [r.N for r in records] == [2, 7, 22]
        assert all(r.v == 1 and not r.v_at_least for r in records)

    @pytest.mark.parametrize("sieve", SIEVES)
    def test_p5_H(self, sieve):
        records = sieve(5, 1000, TARGET_H)
        assert [(r.N, r.v) for r in records] == [(4, 2), (20, 1), (24, 1)]

    @pytest.mark.parametrize("sieve", SIEVES)
    def test_p3_shifted(self, sieve):
        records = sieve(3, 1000, TARGET_H1)
        assert [(r.N, r.v) for r in records] == [(66, 1), (68, 1)]

    @pytest.mark.parametrize("sieve", SIEVES)
    def test_p5_shifted(self, sieve):
        records = sieve(5, 1000, TARGET_H1)
        assert [(r.N, r.v) for r in records] == [(3, 1), (21, 1), (23, 1)]

    def test_p2_exact_is_empty(self):
        # v_2(H_N) = -floor(log2 N) <= 0: nothing to find.
        assert exact_sieve(2, 1000, TARGET_H) == []
        assert exact_sieve(2, 1000, TARGET_H1) == []

    @pytest.mark.parametrize("target", [TARGET_H, TARGET_H1])
    def test_p2_modular_is_empty(self, target):
        # The block [1, 1] has no hit, so the tree ends there.
        records, r = run(2, 1000, target)
        assert records == [] and not r.stopped
        assert r.checkpoint().state == {"queue": []} and r.last_N == 1000


class TestBackendAgreement:
    @pytest.mark.parametrize("target", [TARGET_H, TARGET_H1])
    def test_streams_identical(self, target):
        for p in [q for q in primes_upto(31) if q >= 3]:
            assert exact_sieve(p, 10_000, target) == run(p, 10_000, target)[0], p


class TestCandidateBlocks:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("target", [TARGET_H, TARGET_H1])
    def test_matches_the_per_index_sieve(self, p, target):
        records, checkpoint = per_index_sieve(p, 30_000, target)
        got, r = run(p, 30_000, target)
        assert got == records
        assert r.checkpoint().dump() == checkpoint.dump()

    @pytest.mark.parametrize("p", [5, 11])
    @pytest.mark.parametrize("target", [TARGET_H, TARGET_H1])
    def test_resume_from_every_prefix(self, p, target):
        # Checkpoints at every index up to 400 (most of them inside or
        # between candidate blocks), each resumed to 3000.
        direct, _ = run(p, 3000, target)
        final = per_index_sieve(p, 3000, target)[1]
        for last in range(1, 401):
            first, r1 = run(p, last, target)
            rest, r2 = run(p, 3000, target, checkpoint=r1.checkpoint())
            assert first + rest == direct, last
            assert r2.checkpoint() == final

    # The stream every stopped and resumed run is compared with comes from
    # the exact oracle up to 3000, and from one uninterrupted run to 20000.
    @pytest.mark.parametrize("sieve,max_N", [(exact_sieve, 3000), (modular_sieve, 20_000)],
                             ids=["exact-3000", "modular-20000"])
    def test_stop_after_each_record(self, sieve, max_N):
        direct = sieve(11, max_N, TARGET_H)
        for k in range(1, len(direct) + 1):
            runner = SieveRun(11, max_N, TARGET_H)
            first = []
            for record in runner:
                first.append(record)
                if len(first) == k:
                    runner.stop()
            assert runner.stopped and first == direct[:k]
            cp = runner.checkpoint()
            assert cp.last_N == direct[k - 1].N
            rest, _ = run(11, max_N, TARGET_H, cp)
            assert first + rest == direct

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("target", [TARGET_H, TARGET_H1])
    def test_checkpoint_depends_on_last_N_alone(self, p, target):
        # Stopping after record k leaves the checkpoint of a fresh run to N_k,
        # whether the run is left suspended at record k or drained after it.
        direct, _ = run(p, 30_000, target)
        for k, record in enumerate(direct, 1):
            fresh = run(p, record.N, target)[1].checkpoint()
            for drain in (False, True):
                runner = SieveRun(p, 30_000, target)
                it = iter(runner)
                while next(it) != record:
                    pass
                runner.stop()
                if drain:
                    assert list(it) == []
                assert runner.checkpoint() == fresh, (k, drain)

    @pytest.mark.parametrize("p,max_N,target", [(3, 600_000, TARGET_H), (11, 10**40, TARGET_H1)])
    def test_exhausted_tree_checkpoints_an_empty_queue(self, p, max_N, target, monkeypatch):
        _, r = run(p, max_N, target)
        cp = SieveCheckpoint.load(r.checkpoint().dump())
        assert cp.state == {"queue": []} and cp.last_N == max_N

        def advance_to(self, n):
            raise AssertionError("an exhausted tree has no index left to read")

        monkeypatch.setattr(ModularHarmonicSum, "advance_to", advance_to)
        rest, resumed = run(p, 10 * max_N, target, checkpoint=cp)
        assert rest == [] and resumed.checkpoint().state == {"queue": []}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestDeepTrees:
    """Whole Boyd trees far past the range the exact oracle can check,
    pinned by the SHA-256 of their records (one to_line() per line) and of
    their final checkpoint."""

    @pytest.mark.parametrize(
        "p,max_N,target,count,records_sha,checkpoint_sha",
        [
            (
                11, 10**40, TARGET_H1, 620,
                "de87fb4492e5f21c551b135f3dbf82382ca300131dc86cd95ba0ea7a52dd3ccf",
                "8f4655ccc4e2626944577e844ed74fe918da437931080dd3b801f8ab9750d702",
            ),
            (
                83, 10**60, TARGET_H, 398,
                "73b83945b839ec04cd097f8e291904ada50c8b546870652d047c898bdf7f7c82",
                "10db22d3b35dcb3f0f43c5d8b9c441c02be6adab1eb8642493c4f5586158da60",
            ),
        ],
    )
    def test_records_and_checkpoint_are_pinned(
        self, p, max_N, target, count, records_sha, checkpoint_sha
    ):
        records, r = run(p, max_N, target)
        assert len(records) == count
        assert sha256("\n".join(rec.to_line() for rec in records)) == records_sha
        assert sha256(r.checkpoint().dump()) == checkpoint_sha

    def test_stop_and_resume_deep(self):
        direct, r = run(11, 10**40, TARGET_H1)
        final = r.checkpoint()
        for k in (1, 17, 300):
            runner = SieveRun(11, 10**40, TARGET_H1)
            first = []
            for record in runner:
                first.append(record)
                if len(first) == k:
                    runner.stop()
            assert first == direct[:k]
            cp = SieveCheckpoint.load(runner.checkpoint().dump())
            rest, resumed = run(11, 10**40, TARGET_H1, checkpoint=cp)
            assert first + rest == direct, k
            assert resumed.checkpoint() == final


class TestHitGrowthBounds:
    def test_unshifted_bounds(self):
        # Hits with p <= N satisfy N >= 2p; >= 3p unless p = 3; >= 5p unless
        # p in {3, 5, 11}; >= 6p when the valuation exceeds 2.
        for p in [q for q in primes_upto(31) if q >= 3]:
            for r in run(p, 10_000, TARGET_H)[0]:
                if r.N < p:
                    continue
                assert r.N >= 2 * p
                if p != 3:
                    assert r.N >= 3 * p
                if p not in (3, 5, 11):
                    assert r.N >= 5 * p
                if r.v > 2:
                    assert r.N >= 6 * p

    def test_shifted_bounds(self):
        # Shifted hits with p <= N satisfy N >= 4p; >= 6p unless p = 5.
        for p in [q for q in primes_upto(31) if q >= 3]:
            for r in run(p, 10_000, TARGET_H1)[0]:
                if r.N < p:
                    continue
                assert r.N >= 4 * p
                if p != 5:
                    assert r.N >= 6 * p


class TestCheckpointing:
    @pytest.mark.parametrize("sieve", SIEVES)
    @pytest.mark.parametrize("target", [TARGET_H, TARGET_H1])
    def test_resume_is_deterministic(self, sieve, target):
        direct = sieve(3, 1000, target)
        first, r1 = run(3, 500, target)
        cp = r1.checkpoint()
        assert cp.last_N == 500
        rest, r2 = run(3, 1000, target, checkpoint=cp)
        assert first + rest == direct

    def test_checkpoint_survives_serialization(self):
        _, r1 = run(5, 300, TARGET_H)
        text = r1.checkpoint().dump()
        cp = SieveCheckpoint.load(text)
        rest, _ = run(5, 1000, TARGET_H, checkpoint=cp)
        direct, _ = run(5, 1000, TARGET_H)
        assert rest == [r for r in direct if r.N > 300]

    def test_corrupt_checkpoint_detected(self):
        _, r = run(5, 100, TARGET_H)
        doc = r.checkpoint().to_json()
        doc["last_N"] = 99  # tamper
        with pytest.raises(CheckpointError, match="digest"):
            SieveCheckpoint.from_json(doc)

    def test_garbage_checkpoint_detected(self):
        with pytest.raises(CheckpointError):
            SieveCheckpoint.load("{not json")
        with pytest.raises(CheckpointError):
            SieveCheckpoint.load(json.dumps({"format_version": 99}))

    def test_old_format_and_bad_offset_detected(self):
        _, r = run(5, 100, TARGET_H)
        doc = r.checkpoint().to_json()
        for old in (1, 2, 3):
            with pytest.raises(CheckpointError, match="format_version"):
                SieveCheckpoint.from_json({**doc, "format_version": old})
        del doc["out_offset"]
        with pytest.raises(CheckpointError, match="out_offset"):
            SieveCheckpoint.from_json(doc)
        for bad in (-1, "12", True):
            cp = r.checkpoint()._replace(out_offset=bad)
            with pytest.raises(CheckpointError, match="byte count"):
                SieveCheckpoint.load(cp.dump())

    # The backend a checkpoint names, "exact" as written when the sieve had
    # an exact backend: load checks last_N before a run compares it.
    @pytest.mark.parametrize("backend", ["exact", BACKEND_MODULAR])
    @pytest.mark.parametrize("bad", [-5, 2.5, True])
    def test_bad_last_N_detected(self, backend, bad):
        # The digest is right, so only the last_N check can catch it.
        _, r = run(5, 100, TARGET_H)
        cp = r.checkpoint()._replace(backend=backend, last_N=bad)
        with pytest.raises(CheckpointError, match="last_N"):
            SieveCheckpoint.load(cp.dump())

    # At p = 5 and last_N = 100 the unfinished parents are those x >= 20,
    # up to 100: the run's own queue is [20, 24].
    @pytest.mark.parametrize(
        "queue", [[0], [20, 101], [-1, 20], ["7"], 7, [24, 20], [20, 20], {"20": 1}]
    )
    def test_bad_queue_detected(self, queue):
        _, r = run(5, 100, TARGET_H)
        assert r.checkpoint().state == {"queue": [20, 24]}
        cp = r.checkpoint()._replace(state={"queue": queue})
        with pytest.raises(CheckpointError, match="state is invalid"):
            SieveRun(5, 200, TARGET_H, checkpoint=SieveCheckpoint.load(cp.dump()))

    def test_zero_denominator_detected(self):
        # The exact backend's state, H_N as {"num", "den"}, is no queue.
        _, r = run(3, 10, TARGET_H)
        cp = r.checkpoint()._replace(state={"num": "1", "den": "0"})
        with pytest.raises(CheckpointError, match="state is invalid"):
            SieveRun(3, 20, TARGET_H, checkpoint=SieveCheckpoint.load(cp.dump()))

    def test_mismatched_run_detected(self):
        _, r = run(5, 100, TARGET_H)
        cp = r.checkpoint()
        with pytest.raises(CheckpointError, match="different run"):
            SieveRun(7, 200, TARGET_H, checkpoint=cp)
        with pytest.raises(CheckpointError, match="past"):
            SieveRun(5, 50, TARGET_H, checkpoint=cp)
        # The exact backend's checkpoints, state {"num", "den"}, are another run's.
        exact = cp._replace(backend="exact", state={"num": "1", "den": "1"})
        with pytest.raises(CheckpointError, match="different run"):
            SieveRun(5, 200, TARGET_H, checkpoint=SieveCheckpoint.load(exact.dump()))

    def test_checkpoint_midstream(self):
        runner = SieveRun(3, 1000, TARGET_H)
        it = iter(runner)
        first = next(it)
        assert first.N == 2
        cp = runner.checkpoint()
        assert cp.last_N == 2
        resumed = SieveRun(3, 1000, TARGET_H, checkpoint=cp)
        assert [first] + list(resumed) == list(SieveRun(3, 1000, TARGET_H))


def dumps(o):
    return json.dumps(o, sort_keys=True, separators=(",", ":"))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # inf and nan included
    | st.text(),  # any code point, non-ASCII and control characters included
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestCanonicalJson:
    @given(json_values)
    @settings(max_examples=300)
    def test_matches_json_dumps(self, o):
        assert canonical_json(o) == dumps(o)

    def test_int_beyond_the_int_str_digit_limit(self):
        doc = {"v": [10**4400 + 7, -(10**4400)]}
        with _int_str_digits(0):
            assert canonical_json(doc) == dumps(doc)

    def test_a_failed_call_leaves_nothing_behind(self):
        doc = {"a": {1, 2}}
        with pytest.raises(TypeError):
            canonical_json(doc)
        doc["a"] = [1, 2]
        assert canonical_json(doc) == '{"a":[1,2]}'

    def test_circular_reference_is_detected(self):
        doc = {"x": 1}
        doc["self"] = doc
        with pytest.raises(ValueError, match="Circular"):
            canonical_json(doc)
        assert canonical_json({"x": [doc["x"]]}) == '{"x":[1]}'


class TestRecordSchema:
    def test_jsonl_fields(self):
        rec = SieveRecord(p=3, N=7, v=1, v_at_least=False, target=TARGET_H)
        doc = json.loads(rec.to_line())
        assert doc == {"p": 3, "N": 7, "v": 1, "v_at_least": False, "target": "H"}

    # canonical_json sorts keys, so these bytes must not depend on how the
    # record and checkpoint dicts are assembled.
    @pytest.mark.parametrize(
        "backend,sha256",
        [
            (BACKEND_MODULAR, "d22341721d67cd806fe8e6a7c20fb6990bd9eb1c2f147c53d2c721c2c43f9b7b"),
        ],
    )
    def test_checkpoint_bytes_are_pinned(self, backend, sha256):
        records, r = run(11, 3000, TARGET_H)
        assert r.checkpoint().backend == backend
        assert records[-1].to_line() == (
            '{"N":1293,"p":11,"target":"H","v":1,"v_at_least":false}'
        )
        assert hashlib.sha256(r.checkpoint().dump().encode()).hexdigest() == sha256

    def test_readme_checkpoint_example_is_current(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("Sieve checkpoint (single JSON document") :]
        example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        r = SieveRun(3, 500)
        list(r)
        doc = r.checkpoint().to_json()
        for key in ("digest", "out_offset"):
            del doc[key], example[key]
        assert example == doc

    def test_checkpoint_round_trip_leaves_the_record(self):
        # to_json shares `state` with the record: dumping must not change it.
        _, r = run(5, 100, TARGET_H)
        cp = r.checkpoint()
        assert cp.state == {"queue": [20, 24]}
        state = copy.deepcopy(cp.state)
        text = cp.dump()
        assert cp.dump() == text and cp.state == state
        loaded = SieveCheckpoint.load(text)
        assert type(loaded) is SieveCheckpoint and loaded == cp

    def test_checkpoint_format_version(self):
        _, r = run(3, 10, TARGET_H)
        doc = r.checkpoint().to_json()
        assert doc["format_version"] == 4
        assert {"p", "target", "backend", "last_N", "state", "out_offset", "digest"} <= set(doc)
        assert doc["backend"] == BACKEND_MODULAR and set(doc["state"]) == {"queue"}


class TestValidation:
    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            SieveRun(4, 10)
        with pytest.raises(ValueError):
            SieveRun(3, 0)
        with pytest.raises(ValueError):
            SieveRun(3, 10, target="X")
        # No backend to choose: the checkpoint is the one argument after
        # the target, by keyword only.
        with pytest.raises(TypeError):
            SieveRun(3, 10, backend="modular")
        with pytest.raises(TypeError):
            SieveRun(3, 10, TARGET_H, BACKEND_MODULAR)
