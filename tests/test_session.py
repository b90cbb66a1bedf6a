"""Tests for the session layer: canon, SolveCache, Session, batch admission.

The load-bearing properties:

* one canonicalization module — the schedule serializer and the solve cache
  can never disagree on how a Fraction round-trips;
* the code fingerprint is memoized per (process, salt), and the
  ``REPRO_FINGERPRINT_SALT`` override invalidates exactly the stale
  generation (flipping the salt back restores the original hits);
* a warm :class:`Session` hit is byte-identical to the cold solve across
  backends, and performs **zero** LP solves;
* stores written by the pre-split sweep runner stay readable (index-only
  migration, scan fallback for entries without an offset);
* ``admit_batch`` equals per-stream ``admit``.
"""

from __future__ import annotations

import json
import os
import sqlite3
from fractions import Fraction

import pytest

from repro.cli import main as cli_main
from repro.core.approx import two_approximation
from repro.core.exact import solve_exact
from repro.core.programs import minimal_fractional_T
from repro.lp.stats import SolverStats, collect_stats, record
from repro.runner import ResultsStore
from repro.schedule.arrivals import JobArrival
from repro.schedule.serialize import (
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from repro.session import (
    FINGERPRINT_SALT_ENV,
    Session,
    SolveCache,
    SolveRequest,
    canonical_json,
    code_fingerprint,
    frac_to_str,
    instance_signature,
    set_default_cache,
    str_to_frac,
)
from repro.simulation.admission import admit, admit_batch
from repro.workloads import example_ii1, random_hierarchical, rng_from_seed


# ---------------------------------------------------------------------------
# canon: one shared encoding
# ---------------------------------------------------------------------------


def test_frac_text_round_trip_is_exact():
    ugly = Fraction(123456789123456789, 987654321987654323)
    assert str_to_frac(frac_to_str(ugly)) == ugly
    assert str_to_frac("7") == Fraction(7)


def test_schedule_serializer_uses_shared_fraction_encoding():
    """Cross-module round-trip: a schedule serialized by repro.schedule and a
    Fraction serialized by repro.session.canon use the same wire format."""
    inst = example_ii1()
    result = two_approximation(inst, backend="exact")
    doc = schedule_to_dict(result.schedule)
    for seg in doc["segments"]:
        assert str_to_frac(seg["start"]) >= 0  # canon parses serialize's text
    restored = schedule_from_json(schedule_to_json(result.schedule))
    assert schedule_to_dict(restored) == doc


def test_canonical_json_sorts_and_tags_fractions():
    text = canonical_json({"b": Fraction(1, 3), "a": (1, 2)})
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text)["b"] == {"$frac": [1, 3]}


def test_instance_signature_is_constructor_path_independent():
    inst = example_ii1()
    sig = instance_signature(inst)
    assert sig == instance_signature(example_ii1())
    assert canonical_json(sig) == canonical_json(instance_signature(inst))


# ---------------------------------------------------------------------------
# fingerprint: memoized, salted
# ---------------------------------------------------------------------------


def test_fingerprint_is_memoized_and_salt_invalidates(monkeypatch):
    monkeypatch.delenv(FINGERPRINT_SALT_ENV, raising=False)
    base = code_fingerprint()
    assert code_fingerprint() is base  # dict lookup returns the memo object
    monkeypatch.setenv(FINGERPRINT_SALT_ENV, "pr6-test")
    salted = code_fingerprint()
    assert salted != base
    assert code_fingerprint() == salted
    monkeypatch.delenv(FINGERPRINT_SALT_ENV)
    assert code_fingerprint() == base  # flipping back restores the original


# ---------------------------------------------------------------------------
# SolveCache: KV layer
# ---------------------------------------------------------------------------


def test_cache_put_get_round_trips_fractions(tmp_path):
    with SolveCache(str(tmp_path / "store")) as cache:
        record_ = {"key": "k1", "value": Fraction(22, 7)}
        cache.put("k1", "solve-demo", record_, fingerprint="f1")
        got = cache.get("k1")
        assert got["key"] == "k1"
        assert got["value"] == {"$frac": [22, 7]}
        assert cache.get("missing") is None
        assert cache.has("k1") and not cache.has("missing")


def test_cache_get_survives_stale_offset(tmp_path):
    root = str(tmp_path / "store")
    with SolveCache(root) as cache:
        cache.put("k1", "bucket", {"key": "k1", "v": 1}, fingerprint="f")
        cache._db.execute(
            "UPDATE tasks SET payload_offset = 9999 WHERE key = 'k1'"
        )
        cache._db.commit()
        assert cache.get("k1") == {"key": "k1", "v": 1}  # scan fallback


def test_cache_rejects_path_traversal_bucket(tmp_path):
    with SolveCache(str(tmp_path / "store")) as cache:
        with pytest.raises(ValueError):
            cache.put("k", "../evil", {"key": "k"})


def test_cache_seals_torn_tail_before_appending(tmp_path):
    root = str(tmp_path / "store")
    with SolveCache(root) as cache:
        cache.put("k1", "b", {"key": "k1"}, fingerprint="f")
    path = tmp_path / "store" / "payloads" / "b.jsonl"
    with open(path, "ab") as fh:
        fh.write(b'{"key": "torn')  # crashed writer: no trailing newline
    with SolveCache(root) as cache:
        cache.put("k2", "b", {"key": "k2"}, fingerprint="f")
        assert cache.get("k2") == {"key": "k2"}
        assert cache.get("k1") == {"key": "k1"}
        keys = [r["key"] for r in cache.records("b", fingerprint="*")]
    assert keys == ["k1", "k2"]  # the torn fragment is skipped, not merged


def _old_layout_store(root: str) -> str:
    """A store directory as the pre-split sweep runner wrote it: the tasks
    schema without ``payload_offset``, payload lines without offsets."""
    os.makedirs(os.path.join(root, "payloads"))
    db = sqlite3.connect(os.path.join(root, "index.sqlite"))
    db.executescript(
        """
        CREATE TABLE tasks (
            key TEXT PRIMARY KEY, experiment TEXT NOT NULL,
            params_json TEXT NOT NULL, seed INTEGER,
            fingerprint TEXT NOT NULL, status TEXT NOT NULL,
            elapsed_s REAL, created_at TEXT NOT NULL DEFAULT (datetime('now')),
            payload_path TEXT
        );
        """
    )
    record_ = {"key": "oldkey", "experiment": "e99", "table": {"x": 1}}
    with open(os.path.join(root, "payloads", "e99.jsonl"), "w") as fh:
        fh.write(json.dumps(record_, sort_keys=True) + "\n")
    db.execute(
        "INSERT INTO tasks (key, experiment, params_json, seed, fingerprint,"
        " status, elapsed_s, payload_path) VALUES"
        " ('oldkey', 'e99', '{}', NULL, 'oldfp', 'done', 0.1,"
        "  'payloads/e99.jsonl')"
    )
    db.commit()
    db.close()
    return root


def test_pre_split_store_is_migrated_and_readable(tmp_path):
    root = _old_layout_store(str(tmp_path / "old"))
    with SolveCache(root) as cache:
        columns = {
            row[1] for row in cache._db.execute("PRAGMA table_info(tasks)")
        }
        assert "payload_offset" in columns  # index-only migration
        assert cache.get("oldkey")["table"] == {"x": 1}  # NULL offset → scan
    with ResultsStore(root) as store:
        assert store.experiments() == ["e99"]
        assert [r["key"] for r in store.records("e99")] == ["oldkey"]
        assert [r["key"] for r in store.records("e99", fingerprint="*")] == [
            "oldkey"
        ]
        assert store.latest_fingerprint("e99") == "oldfp"


def test_results_store_hides_session_buckets(tmp_path):
    root = str(tmp_path / "shared")
    with SolveCache(root) as cache:
        cache.put("s1", "solve-template", {"key": "s1"}, fingerprint="f")
        cache.put("t1", "e01", {"key": "t1"}, fingerprint="f")
        store = ResultsStore(cache)
        assert store.experiments() == ["e01"]  # solve-* never tabulated
        assert "solve-template" in cache.buckets()


# ---------------------------------------------------------------------------
# Session: warm hits are byte-identical and solve-free
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["hybrid", "exact"])
def test_warm_hit_matches_cold_solve_exactly(tmp_path, backend):
    inst = example_ii1()
    root = str(tmp_path / "store")
    with Session(backend=backend, cache=root) as cold:
        cold_result = cold.two_approximation(inst)
        cold_T = cold.minimal_fractional_T(inst)
        assert cold.stats.cache_misses == 2 and cold.stats.cache_hits == 0
        assert cold.stats.solves > 0
    payload = tmp_path / "store" / "payloads" / "solve-two_approximation.jsonl"
    cold_bytes = payload.read_bytes()

    with Session(backend=backend, cache=root) as warm:
        with collect_stats() as scope:
            warm_result = warm.two_approximation(inst)
            warm_T = warm.minimal_fractional_T(inst)
        assert warm.stats.cache_hits == 2 and warm.stats.cache_misses == 0
        assert scope.solves == 0 and scope.pivots == 0  # zero LP work
    assert payload.read_bytes() == cold_bytes  # nothing re-appended
    assert warm_T == cold_T
    assert warm_result.makespan == cold_result.makespan
    assert warm_result.T_lp == cold_result.T_lp
    assert dict(warm_result.assignment.items()) == dict(
        cold_result.assignment.items()
    )
    assert schedule_to_dict(warm_result.schedule) == schedule_to_dict(
        cold_result.schedule
    )
    # The warm result matches a from-scratch solve too, not just the payload.
    fresh = two_approximation(inst, backend=backend)
    assert warm_result.makespan == fresh.makespan
    assert schedule_to_dict(warm_result.schedule) == schedule_to_dict(
        fresh.schedule
    )


def test_session_kernel_is_a_read_only_constant():
    session = Session(cache=False)
    assert session.kernel == "revised"
    with pytest.raises(AttributeError):
        session.kernel = "other"


def test_distinct_solver_configs_occupy_distinct_slots(tmp_path):
    inst = example_ii1()
    root = str(tmp_path / "store")
    with Session(backend="hybrid", cache=root) as s:
        s.minimal_fractional_T(inst)
    with Session(backend="exact", cache=root) as s:
        s.minimal_fractional_T(inst)
        assert s.stats.cache_misses == 1  # different backend, different key
    with Session(backend="exact", cache=root) as s:
        s.minimal_fractional_T(inst)
        assert s.stats.cache_hits == 1


def test_solve_exact_and_template_round_trip(tmp_path):
    inst = example_ii1()
    root = str(tmp_path / "store")
    with Session(cache=root) as cold:
        exact = cold.solve_exact(inst)
        template = cold.template(inst, exact.assignment, exact.optimum)
    assert exact.optimum == solve_exact(inst).optimum
    with Session(cache=root) as warm:
        exact2 = warm.solve_exact(inst)
        template2 = warm.template(inst, exact2.assignment, exact2.optimum)
        assert warm.stats.cache_hits == 2 and warm.stats.solves == 0
    assert exact2.optimum == exact.optimum
    assert exact2.nodes_explored == exact.nodes_explored
    assert schedule_to_dict(template2) == schedule_to_dict(template)


def test_salt_invalidates_exactly_the_stale_generation(tmp_path, monkeypatch):
    monkeypatch.delenv(FINGERPRINT_SALT_ENV, raising=False)
    inst = example_ii1()
    root = str(tmp_path / "store")
    with Session(cache=root) as s:
        s.minimal_fractional_T(inst)
        assert s.stats.cache_misses == 1

    monkeypatch.setenv(FINGERPRINT_SALT_ENV, "new-generation")
    with Session(cache=root) as s:
        s.minimal_fractional_T(inst)
        assert s.stats.cache_misses == 1  # salted fingerprint: fresh key
        s.minimal_fractional_T(inst)
        assert s.stats.cache_hits == 1
        # Both generations live in the store; default reads the latest.
        recs = list(s.cache.records("solve-minimal_fractional_T"))
        assert len(recs) == 1
        all_recs = list(
            s.cache.records("solve-minimal_fractional_T", fingerprint="*")
        )
        assert len(all_recs) == 2

    monkeypatch.delenv(FINGERPRINT_SALT_ENV)
    with Session(cache=root) as s:
        s.minimal_fractional_T(inst)
        assert s.stats.cache_hits == 1  # original generation hits again


def test_request_key_depends_on_fingerprint_and_params():
    inst = example_ii1()
    req = SolveRequest("minimal_fractional_T", inst, {"backend": "exact"})
    assert req.key("fp-a") != req.key("fp-b")
    other = SolveRequest("minimal_fractional_T", inst, {"backend": "hybrid"})
    assert req.key("fp-a") != other.key("fp-a")
    assert req.bucket == "solve-minimal_fractional_T"


def test_session_without_cache_still_aggregates_stats():
    inst = example_ii1()
    session = Session(backend="exact", cache=False)
    T = session.minimal_fractional_T(inst)
    assert T == minimal_fractional_T(inst, backend="exact")
    assert session.stats.solves > 0
    assert session.stats.cache_hits == 0 and session.stats.cache_misses == 0
    assert "solve cache" in session.profile()


def test_default_cache_is_picked_up_and_clearable(tmp_path):
    inst = example_ii1()
    cache = set_default_cache(str(tmp_path / "store"))
    try:
        with Session() as s:
            assert s.cache is cache
            s.minimal_fractional_T(inst)
            assert s.stats.cache_misses == 1
    finally:
        set_default_cache(None)
        cache.close()
    assert Session().cache is None


# ---------------------------------------------------------------------------
# stats scopes: nesting regression
# ---------------------------------------------------------------------------


def test_nested_equal_scopes_unwind_by_identity():
    """A nested scope holding exactly the outer scope's counters must not
    evict the outer scope on exit (SolverStats compares by value)."""
    with collect_stats() as outer:
        with collect_stats() as inner:
            record(SolverStats(cache_hits=1))
        assert inner.cache_hits == 1
        record(SolverStats(cache_hits=2))
    assert outer.cache_hits == 3


# ---------------------------------------------------------------------------
# batch admission
# ---------------------------------------------------------------------------


def _arrival_streams(T):
    synchronous = [
        JobArrival(job=j, index=0, release=Fraction(0), deadline=T)
        for j in range(3)
    ]
    staggered = [
        JobArrival(job=j, index=0, release=Fraction(j), deadline=2 * T + j)
        for j in range(3)
    ]
    return [synchronous, staggered]


def test_admit_batch_equals_per_stream_admit():
    inst = example_ii1()
    exact = solve_exact(inst)
    template = __import__(
        "repro.core.hierarchical", fromlist=["schedule_hierarchical"]
    ).schedule_hierarchical(inst, exact.assignment, exact.optimum)
    streams = _arrival_streams(template.T)
    batch = admit_batch(template, streams, windows=3)
    singles = [admit(template, stream, windows=3) for stream in streams]
    assert len(batch) == len(singles) == 2
    for got, want in zip(batch, singles):
        assert schedule_to_dict(got.schedule) == schedule_to_dict(want.schedule)
        assert got.admitted == want.admitted
        assert got.pending == want.pending
        assert got.max_backlog == want.max_backlog
    assert admit_batch(template, [], windows=3) == []


def test_session_admit_batch_uses_cached_template(tmp_path):
    inst = example_ii1()
    exact = solve_exact(inst)
    root = str(tmp_path / "store")
    with Session(cache=root) as s:
        streams = _arrival_streams(exact.optimum)
        results = s.admit_batch(
            inst, exact.assignment, exact.optimum, streams, windows=3
        )
        assert s.stats.cache_misses == 1  # the template, built once
        results2 = s.admit_batch(
            inst, exact.assignment, exact.optimum, streams, windows=3
        )
        assert s.stats.cache_hits == 1  # second batch replays the template
    for got, want in zip(results2, results):
        assert got.admitted == want.admitted


# ---------------------------------------------------------------------------
# CLI: --cache end to end
# ---------------------------------------------------------------------------


def test_cli_cache_warm_run_is_solve_free(tmp_path, capsys):
    store = str(tmp_path / "clistore")
    assert cli_main(["experiments", "e01", "--cache", store, "--profile"]) == 0
    cold = capsys.readouterr().out
    assert "misses" in cold and "0 hits" in cold
    assert cli_main(["experiments", "e01", "--cache", store, "--profile"]) == 0
    warm = capsys.readouterr().out
    assert "solves            0" in warm
    assert "pivots            0" in warm
    assert "3 hits, 0 misses" in warm
    # The cold and warm tables agree (the profile block differs).
    assert cold.split("solver profile:")[0] == warm.split("solver profile:")[0]


def test_cli_solve_demo_reuses_experiment_cache(tmp_path, capsys):
    store = str(tmp_path / "clistore")
    assert cli_main(["solve", "--demo", "ii1", "--cache", store]) == 0
    first = capsys.readouterr().out
    assert cli_main(["solve", "--demo", "ii1", "--cache", store, "--profile"]) == 0
    warm = capsys.readouterr().out
    assert "solves            0" in warm
    assert "3 hits, 0 misses" in warm
    assert first.strip() in warm  # identical rendered schedules


def test_sweep_store_and_session_share_one_directory(tmp_path, capsys):
    """One store directory serves sweep tasks and session solves at once;
    ``repro report`` renders only the sweep side."""
    store = str(tmp_path / "shared")
    assert cli_main(["sweep", "e01", "--store", store]) == 0
    capsys.readouterr()
    with Session(cache=store) as s:
        s.minimal_fractional_T(example_ii1())
    assert cli_main(["report", store]) == 0
    out = capsys.readouterr().out
    assert "e01" in out and "solve-" not in out


# ---------------------------------------------------------------------------
# determinism across instances beyond the worked example
# ---------------------------------------------------------------------------


def test_random_instance_cache_round_trip(tmp_path):
    rng = rng_from_seed(6)
    inst = random_hierarchical(rng, n=6, m=3)
    root = str(tmp_path / "store")
    with Session(backend="exact", cache=root) as cold:
        cold_result = cold.two_approximation(inst)
    with Session(backend="exact", cache=root) as warm:
        warm_result = warm.two_approximation(inst)
        assert warm.stats.cache_hits == 1 and warm.stats.solves == 0
    assert warm_result.makespan == cold_result.makespan
    assert schedule_to_dict(warm_result.schedule) == schedule_to_dict(
        cold_result.schedule
    )
