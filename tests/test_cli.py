import hashlib
import json
import os
import subprocess
import sys

from gasymp import cache as cache_mod
from gasymp.poly import format_poly


def run_cli(*args):
    cmd = [sys.executable, "-m", "gasymp", *args]
    if "--cache-dir" not in args and args[0] != "cache-clear":
        cmd += ["--cache-dir", "none"]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_analyze_text_output():
    res = run_cli("analyze", "sym2", "--level", "0")
    assert res.returncode == 0
    assert "Phi_E = 2*x2*a1 + x3*a2" in res.stdout
    assert "Terminated" in res.stdout


def test_analyze_reducible_case_flags_cap():
    res = run_cli("analyze", "sym1", "--level", "0")
    assert res.returncode == 3
    assert "CapReached" in res.stdout
    assert "component" in res.stdout


def test_analyze_degenerate_rep():
    res = run_cli("analyze", "sym0", "--level", "0")
    assert res.returncode == 0
    assert "trivial action" in res.stdout


def test_parse_error_exit_code():
    res = run_cli("analyze", "sym1+oops")
    assert res.returncode == 2
    assert "position" in res.stderr


def test_bad_flag_exit_code():
    res = run_cli("analyze", "sym1", "--level")
    assert res.returncode == 2


def test_structured_output_is_deterministic(tmp_path):
    a = run_cli("analyze", "sym2", "--level", "1", "--format", "structured")
    b = run_cli("analyze", "sym2", "--level", "1", "--format", "structured")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["schema_version"] == 1
    assert doc["timings"] is None


def test_cox_naming():
    res = run_cli("analyze", "sym1^2", "--level", "0", "--naming", "cox")
    assert res.returncode == 0
    assert "  Phi_E = x1*b1 + x2*b2  (additive moment map)\n" in res.stdout


def test_cox_naming_structured_sym1_sym0():
    res = run_cli("analyze", "sym1+sym0", "--level", "0", "--naming", "cox",
                  "--format", "structured")
    assert res.returncode == 3
    doc = json.loads(res.stdout)
    assert doc["moments"] == {
        "enveloping_zero_level": ["y1*b1 - x1*a1 + u*lam - v*eta",
                                  "x1*b1 + v*lam", "y1*a1 + u*eta"],
        "ga_moment": "x1*b1", "phi_e": "x1*b1", "phi_f": "y1*a1",
        "phi_h": "y1*b1 - x1*a1"}
    assert doc["geometry"]["components"] == [["x1"], ["b1"]]
    assert doc["stability"]["unstable_ideal"] == ["x1", "b1"]
    assert doc["stability"]["torus_weights"] == {
        "y1": 1, "x1": -1, "x2_1": 0, "b1": -1, "a1": 1, "a2_1": 0}
    level_set = doc["invariants"]["level_set"]
    assert level_set["generators"] == [
        "a2_1", "b1", "x1", "x2_1", "y1*b1 + x1*a1", "x1*a1", "x1*a1^2", "y1^2*b1",
        "x1*a1^3", "y1^3*b1"]
    assert level_set["notes"][0] == ("slice image x1 is a zerodivisor modulo the ideal; "
                                     "completeness cannot be certified")
    assert [(c["component"], c["generators"])
            for c in doc["invariants"]["normalization_components"]] == [
        (["x1"], ["a2_1", "b1", "x2_1", "y1"]), (["b1"], ["a1", "a2_1", "x1", "x2_1"])]
    assert doc["comparison"]["section"]["sigma"] == "y1*b1"

    # one naming in every field: no std name of the sym1 summand is left
    text = run_cli("analyze", "sym1+sym0", "--level", "0", "--naming", "cox").stdout
    for report in (res.stdout, text):
        for std_name in ("x1_1", "x1_2", "a1_1", "a1_2"):
            assert std_name not in report


def test_cox_naming_rejected_for_higher_weights():
    for args in (("analyze", "sym2"), ("invariants", "sym2"), ("analyze", "sym0")):
        res = run_cli(*args, "--naming", "cox")
        assert res.returncode == 2
        assert "cox naming applies" in res.stderr


def test_invariants_subcommand():
    res = run_cli("invariants", "sym2", "--level", "0")
    assert res.returncode == 0
    assert "x2^2 - x1*x3" in res.stdout


def test_invariants_exit_code_flags_cap():
    capped = run_cli("invariants", "sym1", "--level", "0")
    assert capped.returncode == 3
    assert "CapReached" in capped.stdout
    done = run_cli("invariants", "sym2", "--level", "0")
    assert done.returncode == 0
    assert "Terminated" in done.stdout


def test_invariants_text_is_the_analyze_block():
    """The invariants command prints the invariants block of analyze line for
    line, with the level set's notes and each component's certified degree."""
    inv = run_cli("invariants", "sym1", "--level", "0").stdout
    full = run_cli("analyze", "sym1", "--level", "0").stdout
    assert inv == full[full.index("invariants:"):full.index("comparison:")]
    assert "    note: slice image x2 is a zerodivisor" in inv
    assert "  component (x2) [Terminated, certified to degree 6]:" in inv


def test_caps_reach_the_chain_through_its_ring():
    """--caps builds the ring the invariant chain runs on, and the chain reads
    its Groebner caps from there: a pair cap of 50 stops the sym1^2 level-0
    chain with this report, pinned byte for byte by its sha256."""
    res = run_cli("invariants", "sym1^2", "--level", "0", "--caps", "40,50",
                  "--format", "structured")
    assert res.returncode == 3
    level_set = json.loads(res.stdout)["invariants"]["level_set"]
    assert level_set["notes"] == ["resource cap hit: pair cap 50 exceeded"]
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "b3317fdccd4959662b505f006ea8b0f94e678690c8d8c7910af04e54096122e7")


def test_negative_degree_bound_is_a_usage_error():
    res = run_cli("invariants", "sym2", "--level", "0", "--deg-bound", "-1")
    assert res.returncode == 2
    assert "--deg-bound" in res.stderr
    assert res.stdout == ""
    zero = run_cli("invariants", "sym2", "--level", "0", "--deg-bound", "0")
    assert zero.returncode == 0
    assert "certified to degree 0" in zero.stdout


def test_zero_denominator_level_is_a_usage_error():
    res = run_cli("analyze", "sym1", "--level", "1/0")
    assert res.returncode == 2
    assert "error: zero denominator" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_zero_denominator_param_is_a_usage_error():
    res = run_cli("embed", "sym1", "--param", "1/0")
    assert res.returncode == 2
    assert "error: zero denominator" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_negative_caps_are_usage_errors():
    for caps in ("5,-1", "-5,1"):
        res = run_cli("analyze", "sym1", f"--caps={caps}")
        assert res.returncode == 2, caps
        assert "error: caps must be non-negative" in res.stderr
        assert res.stdout == ""
    zero = run_cli("invariants", "sym2", "--caps", "0,0")
    assert zero.returncode == 3
    assert "pair cap 0" in zero.stderr


def _run_in(cwd, *args, **env_extra):
    """The CLI in ``cwd``, without the default --cache-dir none of run_cli."""
    import gasymp

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gasymp.__file__)),
               **env_extra)
    return subprocess.run([sys.executable, "-m", "gasymp", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_cache_clear_none_creates_no_directory(tmp_path):
    res = _run_in(tmp_path, "cache-clear", "--cache-dir", "none")
    assert res.returncode == 0
    assert os.listdir(tmp_path) == []


def test_env_var_none_disables_cache(tmp_path):
    res = _run_in(tmp_path, "invariants", "sym1", "--level", "1", GASYMP_CACHE_DIR="none")
    assert res.returncode == 0
    assert os.listdir(tmp_path) == []


def test_cache_clear_missing_directory_creates_nothing(tmp_path):
    missing = tmp_path / "missing"
    res = _run_in(tmp_path, "cache-clear", "--cache-dir", str(missing))
    assert res.returncode == 0
    assert "removed 0 cached entries" in res.stdout
    assert not missing.exists()
    assert os.listdir(tmp_path) == []


def test_embed_subcommand():
    res = run_cli("embed", "sym1", "--kind", "i", "--param", "1")
    assert res.returncode == 0
    assert "lands_in_zero_level: True" in res.stdout
    assert "equivariant: True" in res.stdout


def test_verify_paper_list_and_only():
    res = run_cli("verify-paper", "--list")
    assert res.returncode == 0
    assert "golden" in res.stdout
    only = run_cli("verify-paper", "--only", "1")
    assert only.returncode == 0
    assert "PASS criterion 1" in only.stdout
    missing = run_cli("verify-paper", "--only", "nope")
    assert missing.returncode == 2


def test_unread_flags_are_usage_errors():
    assert run_cli("verify-paper", "--list", "--deg-bound", "3").returncode == 2
    assert run_cli("embed", "sym1", "--level", "1").returncode == 2


def test_verify_paper_golden_subset():
    res = run_cli("verify-paper", "--only", "6.2")
    assert res.returncode == 0
    assert "PASS" in res.stdout and "FAIL" not in res.stdout


def _counting(fn, results):
    """fn, appending the result of each call to ``results``."""
    def wrapper(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]
    return wrapper


def test_cache_roundtrip_and_speedup(tmp_path, monkeypatch):
    # the warm run is fast because it does no work: it stores nothing and
    # runs no chain, and its report is the cold run's byte for byte
    from gasymp import invariants
    from gasymp.report import RunConfig, analyze, render_structured

    puts, chains = [], []
    monkeypatch.setattr(cache_mod.DiskCache, "put", _counting(cache_mod.DiskCache.put, puts))
    monkeypatch.setattr(invariants, "_essen_derksen_compute",
                        _counting(invariants._essen_derksen_compute, chains))
    cache_dir = str(tmp_path / "cache")
    cache_mod.set_active_cache(cache_mod.DiskCache(cache_dir))
    try:
        config = RunConfig(rep_spec="sym2", level=0)
        first = render_structured(analyze(config))
        assert puts and chains
        puts.clear()
        chains.clear()
        second = render_structured(analyze(config))
    finally:
        cache_mod.set_active_cache(None)
    assert first == second
    assert (len(puts), len(chains)) == (0, 0)

    cleared = run_cli("cache-clear", "--cache-dir", cache_dir)
    assert cleared.returncode == 0
    assert "removed" in cleared.stdout


def test_cache_disabled_gives_identical_report(tmp_path):
    from gasymp.report import RunConfig, analyze, render_structured

    config = RunConfig(rep_spec="sym1", level=1)
    cache_mod.set_active_cache(cache_mod.DiskCache(str(tmp_path)))
    try:
        with_cache = render_structured(analyze(config))
    finally:
        cache_mod.set_active_cache(None)
    without = render_structured(analyze(config))
    assert with_cache == without


# sha256 of the JSON list of the sorted keys of the disk-cache entries that
# one analysis writes into an empty cache, as in a fresh process: a new cached
# computation on the analysis path changes it, and a cache filled before that
# change would no longer serve the analysis without writes.  Only chain
# results are stored (Groebner bases are kept in the process), so each set is
# a subset of the keys the analysis wrote when bases were stored as well
# (11, 6, 7 and 11 keys)
_ANALYSIS_CACHE_KEYS_SHA256 = {
    ("sym2", "0"): (1, "629ec7afdcc1e65180b94d71d4c3e14aca34fae3189625ab93f34f570d45ef08"),
    ("sym1", "generic"): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("sym1+sym0", "1"): (1, "72be0b2b6ba06e6f9eb5021ac158ec711be7cd2c5bee2fe6ddd3602f6839ddc5"),
    ("sym1^2", "0"): (1, "45d7a0478ae32fdb996aa88be65ea6348ee95e06d3df45f97cce0d4c9156d7ce"),
}


def test_analysis_cache_keys_are_pinned(tmp_path):
    from gasymp.levelsets import fixed_locus
    from gasymp.report import RunConfig, analyze, parse_level

    for (spec, level), pinned in _ANALYSIS_CACHE_KEYS_SHA256.items():
        # the fixed locus is certified once per process; forget it, so that
        # the count does not depend on what ran before in this process
        fixed_locus.cache_clear()
        directory = tmp_path / f"{spec}-{level}"
        directory.mkdir()
        cache_mod.set_active_cache(cache_mod.DiskCache(str(directory)))
        try:
            analyze(RunConfig(rep_spec=spec, level=parse_level(level)))
        finally:
            cache_mod.set_active_cache(None)
        keys = sorted(name[len("gasymp_"):-len(".json")] for name in os.listdir(directory))
        digest = hashlib.sha256(json.dumps(keys).encode()).hexdigest()
        assert (len(keys), digest) == pinned, (spec, level)


# sha256 of render_structured(analyze(...)) with the cache off, for the
# analyses the benchmark's warm workload repeats: every field of these
# reports, the comparison section's booleans included, is pinned byte for byte
_STRUCTURED_REPORT_SHA256 = {
    ("sym1", "0"): "ea82455fb1c44dd8625abb8fa0d2d8b9864423a5ecbb5afd8fdce43affec928c",
    ("sym1", "1"): "c4d08979d22247bf99214bb4374f0a54d33eda2b50e96f1dee9dc41ff590828b",
    ("sym1", "generic"): "b9596313dfe586cf74156bc76761a463afdb1d5144367566afd02f3d8a928099",
    ("sym2", "0"): "f806a9655a4762ce51eefbac83521e298fde01e34dfbe50a37d1bf7874e0480c",
    ("sym2", "1"): "10df6dbbe73080d348d1d153598f0b025e23271a70224895bb7ef76bea766dbb",
    ("sym2", "generic"): "8e15ac08bd8d3671de2154b0bb1147b06894611783c39fa9e2fc1cf9481a615e",
    ("sym1+sym0", "0"): "a8ca3629c22f74b064f7d41937d0a7b59470940ede1c8145f3d94682ec60dc67",
    ("sym1+sym0", "1"): "4d3bac5bac250006d43120af532b581e83f125a873a4754af516a6016cabb910",
    ("sym1+sym0", "generic"): "3d33adf4b0c7c0a1647a74f84613e699d95ae762d4cf87138f1237734d96cca2",
    ("sym1^2", "0"): "1b33177f8f99b9db196a4cf0d9e4fbce0d63b897fc3efe9f34dc3236a56de245",
    ("sym1^2", "1"): "76662e29bb0d62976480607c2c3041e58a245ff252ec77cac36bc6ef7e9a3faa",
    ("sym1^2", "generic"): "c7023f29546983f83d05ea7c9f393b16cf8776dfbef73b8644b89d6a549b83db",
}


def test_structured_reports_are_pinned():
    from gasymp.report import RunConfig, analyze, parse_level, render_structured

    cache_mod.set_active_cache(None)
    for (spec, level), pinned in _STRUCTURED_REPORT_SHA256.items():
        text = render_structured(analyze(RunConfig(rep_spec=spec, level=parse_level(level))))
        assert hashlib.sha256(text.encode()).hexdigest() == pinned, (spec, level)


def test_analysis_stores_only_chain_results(tmp_path, monkeypatch):
    """An analysis with an active cache stores no Groebner basis: each entry
    it writes is the result of an invariant chain, under its chain key."""
    from gasymp import invariants
    from gasymp.report import RunConfig, analyze

    chain_keys = []
    ring_key = invariants._ring_key

    def recording(q, derivations, **extra):
        key = ring_key(q, derivations, **extra)
        if extra["kind"] == "essen-derksen":
            chain_keys.append(key)
        return key

    monkeypatch.setattr(invariants, "_ring_key", recording)
    cache_mod.set_active_cache(cache_mod.DiskCache(str(tmp_path)))
    try:
        analyze(RunConfig(rep_spec="sym1+sym0", level=0))
    finally:
        cache_mod.set_active_cache(None)
    stored = {name[len("gasymp_"):-len(".json")] for name in os.listdir(tmp_path)}
    assert len(stored) == 3
    assert stored == set(chain_keys)


def test_cache_hit_is_bit_identical(tmp_path, monkeypatch):
    from gasymp import invariants
    from gasymp.invariants import QuotientRing, essen_derksen
    from gasymp.reps import parse_rep

    rep = parse_rep("sym2")

    def chain():
        report = essen_derksen(QuotientRing.level_set(rep, 0))
        return ([format_poly(g) for g in report.generators], report.certified_degree,
                report.termination, report.notes)

    cache_mod.set_active_cache(cache_mod.DiskCache(str(tmp_path)))
    try:
        with_cache = chain()
        # a fresh ring with the same content hits the disk entry once and
        # runs no chain
        reads, computed = [], []
        monkeypatch.setattr(cache_mod.DiskCache, "get", _counting(cache_mod.DiskCache.get, reads))
        monkeypatch.setattr(invariants, "_essen_derksen_compute",
                            _counting(invariants._essen_derksen_compute, computed))
        cached = chain()
        monkeypatch.undo()
    finally:
        cache_mod.set_active_cache(None)
    plain = chain()
    assert len(reads) == 1 and reads[0] is not None and not computed
    assert with_cache == cached == plain


def test_cache_keys_distinguish_ideals():
    from gasymp.invariants import QuotientRing, _ring_key
    from gasymp.reps import parse_rep

    rep = parse_rep("sym1")
    zero, one = QuotientRing.level_set(rep, 0), QuotientRing.level_set(rep, 1)
    # the two rings differ only in their ideal
    assert zero.table == one.table
    assert zero.derivation.images == one.derivation.images
    assert zero.ideal.gens != one.ideal.gens
    assert _ring_key(zero, (zero.derivation,)) != _ring_key(one, (one.derivation,))


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    cache = cache_mod.DiskCache(str(tmp_path))
    cache.put("deadbeef", {"x": 1})
    path = cache._path("deadbeef")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    assert cache.get("deadbeef") is None
    cache.put("deadbeef", [1, 2, 3])
    assert cache.get("deadbeef") == [1, 2, 3]


def test_unwritable_cache_dir_skips_stores(tmp_path):
    blocker = tmp_path / "f"
    blocker.touch()
    res = _run_in(tmp_path, "invariants", "sym1", "--level", "1", "--cache-dir", str(blocker))
    plain = _run_in(tmp_path, "invariants", "sym1", "--level", "1", "--cache-dir", "none")
    assert res.returncode == plain.returncode == 0, res.stderr
    assert res.stdout == plain.stdout
    assert sorted(os.listdir(tmp_path)) == ["f"]


def test_env_var_cache_dir(tmp_path):
    env = dict(os.environ)
    env["GASYMP_CACHE_DIR"] = str(tmp_path)
    cmd = [sys.executable, "-m", "gasymp", "analyze", "sym1", "--level", "1"]
    res = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert res.returncode == 0
    entries = [n for n in os.listdir(tmp_path) if n.startswith("gasymp_")]
    assert entries


def test_concurrent_cache_writers(tmp_path):
    import threading

    cache = cache_mod.DiskCache(str(tmp_path))
    errors = []

    def writer(i):
        try:
            for k in range(20):
                cache.put("shared", {"writer": i, "k": k})
                cache.get("shared")
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.get("shared") is not None
