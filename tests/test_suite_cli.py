import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coxdunkl.dunkl
import coxdunkl.suite
from coxdunkl.cli import _build_parser, main
from coxdunkl.coxeter import DEFAULT_ENUMERATION_BUDGET
from coxdunkl.errors import BudgetError, ConfigError
from coxdunkl.mmintegral import mm_monte_carlo
from coxdunkl.scalars import KPoly
from coxdunkl.suite import (CHECK_ORDER, CHECKS, DEFAULT_GROUPS, STATISTICAL,
                            CheckReport, SuiteConfig, default_threads,
                            group_context, parse_config, render_report,
                            run_check, run_suite)

FAST_EXACT = ("poincare_identity", "degrees_consistency", "chevalley",
              "psi_identities", "mm_exact_k1", "mm_exact_k2")


def test_parse_defaults():
    cfg = parse_config("")
    assert cfg.groups == DEFAULT_GROUPS
    assert cfg.checks == CHECK_ORDER
    # the registry's order is the report order
    assert CHECK_ORDER == (
        "poincare_identity", "degrees_consistency", "chevalley",
        "psi_identities", "b_poly", "mm_exact_k1", "mm_exact_k2",
        "functional_equation", "gamma_cross_check", "log_moments")
    assert cfg.mc_samples == 10_000_000
    assert cfg.seed == 42
    assert cfg.shards == 16
    assert cfg.enumeration_budget == 20000
    assert not cfg.heavy_types_enabled


def test_info_budget_default_is_the_suite_default():
    # `info` and `suite` enumerate under the same default cap
    args = _build_parser().parse_args(["info", "--type", "A2"])
    assert args.budget == DEFAULT_ENUMERATION_BUDGET
    assert SuiteConfig().enumeration_budget == DEFAULT_ENUMERATION_BUDGET


def test_parse_examples():
    cfg = parse_config("groups = A2, H3\nmc_samples = 1000000")
    assert cfg.groups == ("A2", "H3")
    assert cfg.mc_samples == 1_000_000
    cfg = parse_config("checks = b_poly\ngroups = I2(6)")
    assert cfg.checks == ("b_poly",)
    assert cfg.groups == ("I2(6)",)


def test_parse_comments_and_errors():
    cfg = parse_config("# a comment\n\nseed = 7   # trailing\n")
    assert cfg.seed == 7
    # a seed is only hashed into the substreams, so any integer is one, as
    # on the command line; the counts stay positive
    assert parse_config("seed = 0").seed == 0
    assert parse_config("seed = -3").seed == -3
    for key in ("mc_samples", "shards", "enumeration_budget"):
        with pytest.raises(ConfigError, match=f"{key} must be positive"):
            parse_config(f"{key} = 0")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("seed = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("colour = red")
    with pytest.raises(ConfigError, match="unknown group"):
        parse_config("groups = Q5")
    # A02 would pass the duplicate check beside A2 and run A2 twice
    with pytest.raises(ConfigError, match="unknown group 'A02'"):
        parse_config("groups = A2, A02")
    with pytest.raises(ConfigError, match="unknown check"):
        parse_config("checks = flux_capacitor")
    # an empty list would verify nothing and exit 0
    with pytest.raises(ConfigError, match="line 2: groups needs at least"):
        parse_config("seed = 1\ngroups =\n")
    with pytest.raises(ConfigError, match="line 1: checks needs at least"):
        parse_config("checks = ,  # none")
    # a repeated group would be reported twice and drawn twice in the pass
    with pytest.raises(ConfigError, match="line 1: group 'A1' listed twice"):
        parse_config("groups = A1, A2, A1")
    with pytest.raises(ConfigError, match="line 3: check 'b_poly' listed"):
        parse_config("\n\nchecks = b_poly,b_poly")
    # a repeated key would silently override the earlier line
    with pytest.raises(ConfigError, match="line 2: key 'groups' given twice"):
        parse_config("groups = A2\ngroups = B2")
    with pytest.raises(ConfigError, match="line 3: key 'seed' given twice"):
        parse_config("seed = 1\n# again\nseed = 2")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("shards = many")
    with pytest.raises(ConfigError, match="true/false"):
        parse_config("heavy_types_enabled = maybe")


def test_run_suite_checks_a_config_built_in_code():
    # run_suite holds a SuiteConfig built in code to the rules parse_config
    # holds config text to, before any group is built or reported
    cfg = SuiteConfig(groups=("A2",), checks=("poincare_identity",))
    for fields, message in [
            ({"groups": ("A2", "A2")}, "group 'A2' listed twice"),
            ({"groups": (" A2",)}, "unknown group ' A2'"),
            ({"groups": ("Q5",)}, "unknown group 'Q5'"),
            ({"groups": ()}, "groups needs at least one group"),
            ({"checks": ("b_poly", "b_poly")}, "check 'b_poly' listed twice"),
            ({"checks": ("flux_capacitor",)}, "unknown check 'flux_capacitor'"),
            ({"checks": ()}, "checks needs at least one check"),
            ({"mc_samples": 0}, "mc_samples must be positive"),
            ({"shards": -2}, "shards must be positive"),
            ({"enumeration_budget": 0}, "enumeration_budget must be positive"),
            ({"mc_samples": 1e6}, "mc_samples needs an integer"),
            ({"heavy_types_enabled": "false"},
             "heavy_types_enabled needs true/false, got 'false'")]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            run_suite(cfg._replace(**fields), threads=1)
    # a seed is any integer, as in config text
    reports, code = run_suite(cfg._replace(seed=-3), threads=1)
    assert code == 0 and [r.group for r in reports] == ["A2"]


@pytest.mark.parametrize("threads", [0, -1, True, 2.0, "2"])
def test_run_suite_rejects_a_thread_count_that_is_not_a_positive_int(
        threads, monkeypatch):
    # from a library caller, as --threads and COXDUNKL_THREADS are checked
    # in the CLI: 0 threads would leave the pass no workspace and hang it
    def build(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(coxdunkl.suite, "group_context", build)
    cfg = SuiteConfig(groups=("A1",), checks=("log_moments",),
                      mc_samples=1000)
    with pytest.raises(ConfigError, match="^threads needs a positive integer"):
        run_suite(cfg, threads=threads)


def test_config_round_trip():
    # every key written out, defaults and a non-default config alike
    text = ("groups = A1, A2, A3, B2, B3, D4, I2(5), I2(7), H3\n"
            "checks = poincare_identity, degrees_consistency, chevalley, "
            "psi_identities, b_poly, mm_exact_k1, mm_exact_k2, "
            "functional_equation, gamma_cross_check, log_moments\n"
            "mc_samples = 10000000\nseed = 42\nshards = 16\n"
            "enumeration_budget = 20000\nheavy_types_enabled = false\n")
    assert parse_config(text) == SuiteConfig()
    text = ("groups = A2\nchecks = b_poly\nmc_samples = 1000\nseed = 3\n"
            "shards = 2\nenumeration_budget = 20000\n"
            "heavy_types_enabled = true\noutput_path = /tmp/out.json\n")
    assert parse_config(text) == SuiteConfig(
        groups=("A2",), checks=("b_poly",), mc_samples=1000, seed=3,
        shards=2, heavy_types_enabled=True, output_path="/tmp/out.json")


def test_render_report_empty_and_schema():
    assert render_report([], "json", seed=42) == \
        '{"suite_version":1,"seed":42,"checks":[],"failures":0}'


def test_report_serialization_is_pinned():
    # key order and values of one exact and one statistical report; an
    # exact report carries no z_score key
    exact = CheckReport("b_poly", "A2", "exact", "pass",
                        "6*(2k+1)*(3k+1)*(3k+2)",
                        "6*(2k+1)*(3k+1)*(3k+2) (roots -m/d_i verified)",
                        None, 12)
    stat = CheckReport("log_moments", "A2", "statistical", "pass",
                       "E[log Delta^2] = -EulerGamma*|S| = -1.7316469",
                       "mean=-1.7315 (se=0.00033)", -0.123456789012345, 3401)
    dump = lambda r: json.dumps(r.as_dict(), separators=(",", ":"))
    assert dump(exact) == (
        '{"name":"b_poly","group":"A2","mode":"exact","status":"pass",'
        '"expected":"6*(2k+1)*(3k+1)*(3k+2)","actual":"6*(2k+1)*(3k+1)*'
        '(3k+2) (roots -m/d_i verified)","runtime_ms":12}')
    assert dump(stat) == (
        '{"name":"log_moments","group":"A2","mode":"statistical",'
        '"status":"pass","expected":"E[log Delta^2] = -EulerGamma*|S| = '
        '-1.7316469","actual":"mean=-1.7315 (se=0.00033)",'
        '"z_score":-0.123456789012345,"runtime_ms":3401}')


def _strip_runtime(doc):
    for c in doc["checks"]:
        c.pop("runtime_ms", None)
    return doc


def test_run_suite_exact_checks_pass_and_deterministic():
    cfg = SuiteConfig(groups=("A1", "A2", "B2"), checks=FAST_EXACT)
    reports, code = run_suite(cfg, threads=2)
    assert code == 0
    assert all(r.status in ("pass", "skipped") for r in reports)
    # deterministic order: (group, check) in configuration order
    labels = [(r.group, r.name) for r in reports]
    expected = [(g, c) for g in cfg.groups for c in CHECK_ORDER if c in FAST_EXACT]
    assert labels == expected
    reports2, _ = run_suite(cfg, threads=1)
    a = _strip_runtime(json.loads(render_report(reports, "json", 42)))
    b = _strip_runtime(json.loads(render_report(reports2, "json", 42)))
    assert a == b
    with pytest.raises(ValueError, match="unknown check"):
        run_check("no_such_check", group_context("A1"), cfg)


def test_exact_checks_return_a_verdict_and_two_strings():
    # the protocol of every exact check: (ok, expected, actual), ok None for
    # a gated skip; the row builder derives the mode and the status
    ctx, cfg = group_context("A2"), SuiteConfig()
    exact = [name for name in CHECKS if name not in STATISTICAL]
    assert "mm_exact_k2" in exact
    for name in exact:
        result = CHECKS[name](ctx, cfg)
        assert type(result) is tuple and len(result) == 3, name
        ok, expected, actual = result
        assert ok in (True, False, None), name
        assert type(expected) is str and type(actual) is str, name
    ok, expected, actual = CHECKS["mm_exact_k2"](group_context("B4"), cfg)
    assert ok is None
    assert (expected, actual) == (
        "2k|S|=64 exceeds moment degree bound 60", "skipped")


def test_exact_reports_carry_no_z_and_statistical_do():
    cfg = SuiteConfig(groups=("A1",), checks=("b_poly", "log_moments"),
                      mc_samples=50_000, shards=4)
    reports, code = run_suite(cfg, threads=1)
    assert code == 0
    by_name = {r.name: r for r in reports}
    assert by_name["b_poly"].mode == "exact"
    assert by_name["b_poly"].z_score is None
    assert by_name["log_moments"].mode == "statistical"
    assert by_name["log_moments"].z_score is not None
    doc = json.loads(render_report(reports, "json", 42))
    exact = [c for c in doc["checks"] if c["name"] == "b_poly"][0]
    stat = [c for c in doc["checks"] if c["name"] == "log_moments"][0]
    assert "z_score" not in exact
    assert "z_score" in stat


def test_statistical_checks_small_run():
    cfg = SuiteConfig(groups=("A1",),
                      checks=("functional_equation", "gamma_cross_check"),
                      mc_samples=100_000, shards=4)
    reports, code = run_suite(cfg, threads=1)
    assert code == 0
    assert all(r.status == "pass" for r in reports)


STATISTICAL = ("functional_equation", "gamma_cross_check", "log_moments")
# enough samples that A2's functional equation (the F(3/2) moment) is not gated
A2_SHARED = dict(groups=("A2",), mc_samples=640_000, shards=4, seed=11)


def _without_runtime(reports):
    return [dict(r.as_dict(), runtime_ms=None) for r in reports]


def test_statistical_checks_of_a_group_share_one_pass(monkeypatch):
    import coxdunkl.mmintegral as mmi
    opened = []
    substream = mmi._substream

    def counting(seed, label, shard):
        opened.append((seed, label, shard))
        return substream(seed, label, shard)

    monkeypatch.setattr(mmi, "_substream", counting)
    reports, code = run_suite(SuiteConfig(checks=STATISTICAL, **A2_SHARED),
                              threads=1)
    assert code == 0
    assert [(r.name, r.status) for r in reports] == [
        (c, "pass") for c in STATISTICAL]
    assert sorted(opened) == [(11, f"axis{j}", i) for j in range(2)
                              for i in range(4)]


def test_statistical_reports_do_not_depend_on_their_companions():
    together = {}
    for threads in (1, 2):
        reports, _ = run_suite(SuiteConfig(checks=STATISTICAL, **A2_SHARED),
                               threads=threads)
        together[threads] = _without_runtime(reports)
        for check, rep in zip(STATISTICAL, together[threads]):
            alone, _ = run_suite(SuiteConfig(checks=(check,), **A2_SHARED),
                                 threads=threads)
            assert _without_runtime(alone) == [rep]
    # the three checks of one group at threads 1 and 2
    assert together[1] == together[2]


def test_every_pass_runs_its_shards_on_the_threads(monkeypatch):
    import coxdunkl.suite as suite
    seen = []
    mc_pass = suite.mc_pass

    def recording(*args, **kwargs):
        seen.append(args[4] if len(args) > 4 else kwargs.get("threads", 1))
        return mc_pass(*args, **kwargs)

    monkeypatch.setattr(suite, "mc_pass", recording)
    cfg = SuiteConfig(groups=("A1",), checks=("log_moments",),
                      mc_samples=20_000, shards=4)
    run_suite(cfg, threads=2)
    # two ranks share one pass, on all the threads
    run_suite(cfg._replace(groups=("A1", "A2")), threads=2)
    assert seen == [2, 2]


def test_groups_of_one_rank_share_one_pass_and_keep_their_reports():
    rank3 = dict(mc_samples=200_000, shards=3, seed=17)
    for threads in (1, 2, 3):
        alone, _ = run_suite(SuiteConfig(groups=("B3",), checks=STATISTICAL,
                                         **rank3), threads=threads)
        shared, code = run_suite(SuiteConfig(groups=("A3", "B3", "H3"),
                                             checks=STATISTICAL, **rank3),
                                 threads=threads)
        assert code == 0
        assert [r.group for r in shared] == [g for g in ("A3", "B3", "H3")
                                             for _ in STATISTICAL]
        assert _without_runtime(shared[3:6]) == _without_runtime(alone)
        assert any(r.status == "pass" for r in alone)
        if threads == 1:
            first = _without_runtime(shared)
        assert _without_runtime(shared) == first


def test_groups_of_any_rank_share_one_pass_and_keep_their_reports(
        monkeypatch):
    import coxdunkl.suite as suite
    passes = []
    mc_pass = suite.mc_pass

    def recording(parts, *args, **kwargs):
        passes.append([rs.label for rs, _ in parts])
        return mc_pass(parts, *args, **kwargs)

    monkeypatch.setattr(suite, "mc_pass", recording)
    mixed = dict(A2_SHARED, groups=("B3", "A2", "D4"))
    for threads in (1, 2, 3):
        alone, _ = run_suite(SuiteConfig(checks=STATISTICAL, **A2_SHARED),
                             threads=threads)
        shared, code = run_suite(SuiteConfig(checks=STATISTICAL, **mixed),
                                 threads=threads)
        assert code == 0
        assert [r.group for r in shared] == [g for g in mixed["groups"]
                                             for _ in STATISTICAL]
        assert _without_runtime(shared[3:6]) == _without_runtime(alone)
        assert all(r.status == "pass" for r in alone)
        if threads == 1:
            first = _without_runtime(shared)
        assert _without_runtime(shared) == first
    assert passes == [["A2"], ["B3", "A2", "D4"]] * 3


def test_statistical_checks_gated_by_predicted_error():
    # the F(k+1) moment for H3 is far too heavy-tailed for desk-scale MC,
    # so the suite must skip rather than trust an invalid 4-sigma band
    cfg = SuiteConfig(groups=("H3",), checks=("functional_equation",),
                      mc_samples=1_000_000)
    reports, code = run_suite(cfg, threads=1)
    assert code == 0
    assert reports[0].status == "skipped"
    assert "heavy-tailed" in reports[0].actual
    # the pairing cross-check drops to k=1/4 for H3 instead of skipping
    cfg = SuiteConfig(groups=("H3",), checks=("gamma_cross_check",),
                      mc_samples=1_000_000, shards=8)
    reports, code = run_suite(cfg, threads=1)
    assert code == 0
    assert reports[0].status == "pass"
    assert "k=1/4" in reports[0].expected


def test_heavy_group_skipped_without_flag():
    # no group is gated by its name: H4 runs what the size gates admit
    cfg = SuiteConfig(groups=("A1", "H4"),
                      checks=("degrees_consistency", "b_poly", "mm_exact_k1"))
    reports, code = run_suite(cfg, threads=1)
    assert code == 0
    by_key = {(r.group, r.name): r for r in reports}
    assert all(by_key["A1", c].status == "pass" for c in cfg.checks)
    assert by_key["H4", "degrees_consistency"].status == "pass"
    b = by_key["H4", "b_poly"]
    assert (b.status, b.expected, b.actual) == (
        "skipped", "|S|=60 exceeds the default budget",
        "skipped (enable heavy_types_enabled)")
    mm = by_key["H4", "mm_exact_k1"]
    assert (mm.status, mm.expected) == (
        "skipped", "2k|S|=120 exceeds moment degree bound 60")


def test_heavy_flag_changes_only_b():
    # F4's census reads the same with and without heavy_types_enabled
    census = ("poincare_identity", "degrees_consistency", "chevalley",
              "psi_identities")
    runs = []
    for heavy in (False, True):
        cfg = SuiteConfig(groups=("F4",), checks=census,
                          heavy_types_enabled=heavy)
        reports, code = run_suite(cfg, threads=1)
        assert code == 0
        runs.append([r._replace(runtime_ms=0) for r in reports])
    assert runs[0] == runs[1]
    assert [r.status for r in runs[0]] == ["pass"] * len(census)


def test_budget_exhaustion_exit_code():
    cfg = SuiteConfig(groups=("E6",), checks=("degrees_consistency",),
                      enumeration_budget=2000)
    reports, code = run_suite(cfg, threads=1)
    assert code == 3
    assert reports[0].status == "skipped"


def test_budget_skipped_rows_keep_their_check_mode():
    # E6 (order 51840) is past the default enumeration budget, so every row
    # is skipped; a statistical check still reports mode "statistical"
    checks = ("degrees_consistency", "gamma_cross_check", "log_moments")
    reports, code = run_suite(SuiteConfig(groups=("E6",), checks=checks),
                              threads=1)
    assert code == 3
    assert [(r.name, r.mode, r.status) for r in reports] == [
        ("degrees_consistency", "exact", "skipped"),
        ("gamma_cross_check", "statistical", "skipped"),
        ("log_moments", "statistical", "skipped")]


def test_mm_exact_skipped_when_over_budget():
    # B4 has 16 positive roots, so k=2 needs a moment of degree 64 > 60
    cfg = SuiteConfig(groups=("B4",), checks=("mm_exact_k2",))
    reports, code = run_suite(cfg, threads=1)
    assert code == 0
    assert reports[0].status == "skipped"


def test_corrupted_closed_form_fails_suite(monkeypatch):
    spec_poison = {}

    def bad_closed_form(spec, dd):
        out = KPoly.const(spec, dd.order + 1)
        for d in dd.degrees:
            for m in range(1, d):
                out = out * KPoly.from_coeffs(spec, [m, d])
        return out

    monkeypatch.setattr(coxdunkl.dunkl, "closed_form_b", bad_closed_form)
    cfg = SuiteConfig(groups=("I2(8)",), checks=("b_poly",))
    reports, code = run_suite(cfg, threads=1)
    assert code == 1
    assert reports[0].status == "fail"
    # do not leave the corrupted result cached for other tests
    group_context("I2(8)").rs._caches.pop("b_poly", None)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_info(capsys):
    assert main(["info", "--type", "A3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"type": "A3", "rank": 3, "order": 24,
                   "num_reflections": 6, "degrees": [2, 3, 4], "psi": 82,
                   "rank2_parabolics": {"2": 3, "3": 4}}


def test_cli_info_unknown_type(capsys):
    assert main(["info", "--type", "Z9"]) == 2
    assert main(["info", "--type", "A03"]) == 2   # only canonical labels


def test_group_context_is_one_object_per_label_and_budget():
    ctx = group_context("A2")
    assert group_context("A2", DEFAULT_ENUMERATION_BUDGET) is ctx
    assert group_context("A2", enumeration_budget=DEFAULT_ENUMERATION_BUDGET) is ctx
    assert group_context(label="A2") is ctx


def test_cli_info_heavy_gate(capsys):
    # `info` has no name gate and no --heavy flag
    assert main(["info", "--type", "H4"]) == 0
    assert capsys.readouterr().out.strip() == (
        '{"type":"H4","rank":4,"order":14400,"num_reflections":60,'
        '"degrees":[2,12,20,30],"psi":9356,'
        '"rank2_parabolics":{"2":450,"3":200,"5":72}}')
    assert main(["info", "--type", "H4", "--heavy"]) == 2


def test_cli_verify(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--check", "b_poly", "--type", "I2(6)",
                 "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["failures"] == 0
    assert doc["checks"][0]["status"] == "pass"
    assert doc["checks"][0]["group"] == "I2(6)"


def test_cli_verify_bad_check(capsys):
    assert main(["verify", "--check", "nonsense", "--type", "A2"]) == 2


def test_cli_integrate(capsys):
    code = main(["integrate", "--type", "A1", "--k", "0.5",
                 "--samples", "100000", "--seed", "7", "--shards", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "A1" and doc["k"] == "1/2"
    assert doc["samples"] == 100000
    assert abs(doc["z_score"]) <= 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy on inf weights
def test_cli_integrate_past_the_float_range_exhausts_the_budget(capsys):
    # the estimate (k = 50) or the Gamma product (k = 1000, 1000.5, 300000)
    # leaves the float range: a one-line budget exit, not a traceback or a
    # failure, and at once (k = 300000 once took minutes to build its exact
    # product)
    for k in ("50", "1000", "1000.5", "300000"):
        assert main(["integrate", "--type", "A2", "--k", k, "--samples",
                     "2000", "--shards", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exhausted:") and err.count("\n") == 1
    # a non-finite estimate raises rather than reading as z = 0, a pass
    with pytest.raises(BudgetError, match="float range"):
        mm_monte_carlo(group_context("A2").rs, 1000, 2000, 42, 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_integrate_reports_an_estimate_whose_fourth_moment_overflows(
        capsys):
    # the weights' fourth central moment leaves the float range, their mean
    # and standard error do not: the estimate is reported (and fails)
    for k in ("30", "40"):
        assert main(["integrate", "--type", "A2", "--k", k, "--samples",
                     "2000", "--shards", "2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert 0 < doc["mean"] < float("inf")
        assert 0 < doc["std_error"] < float("inf")


def test_cli_integrate_bad_k(capsys):
    assert main(["integrate", "--type", "A1", "--k", "nope"]) == 2
    assert main(["integrate", "--type", "A1", "--k", "-1"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "log_moments", "--type", "A2", "--samples", "0"],
    ["verify", "--check", "log_moments", "--type", "A2", "--shards", "0"],
    ["integrate", "--type", "A1", "--k", "1", "--samples", "0"],
    ["integrate", "--type", "A1", "--k", "1", "--shards", "-3"],
    ["verify", "--check", "b_poly", "--type", "A2", "--samples", "many"],
])
def test_cli_rejects_nonpositive_samples_and_shards(argv, capsys):
    # a usage error with a message, as parse_config gives, not a traceback
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--samples" in err or "--shards" in err
    assert "must be positive" in err or "needs an integer" in err


@pytest.mark.parametrize("argv", [
    ["--threads", "-2", "info", "--type", "A2"],
    ["--threads", "0", "info", "--type", "A2"],
    ["info", "--type", "A2", "--budget", "0"],
])
def test_cli_rejects_nonpositive_threads_and_budget(argv, capsys):
    # not a silent sequential run, a silent default, or a budget exit (3)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--threads" in err or "--budget" in err
    assert "must be positive" in err


@pytest.mark.parametrize("value", ["0", "-2", "abc"])
def test_threads_variable_rejects_nonpositive_and_non_integers(
        value, monkeypatch, capsys):
    # as --threads does: not a silent single thread or CPU count
    monkeypatch.setenv("COXDUNKL_THREADS", value)
    with pytest.raises(ConfigError, match="COXDUNKL_THREADS"):
        default_threads()
    assert main(["info", "--type", "A2"]) == 2
    assert "COXDUNKL_THREADS" in capsys.readouterr().err


def test_cli_suite(tmp_path, capsys):
    cfg_path = tmp_path / "suite.cfg"
    json_path = tmp_path / "report.json"
    cfg_path.write_text(
        "groups = A1, A2\n"
        "checks = poincare_identity, degrees_consistency, b_poly\n"
        f"output_path = {json_path}\n")
    code = main(["suite", "--config", str(cfg_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    doc = json.loads(json_path.read_text())
    assert doc["suite_version"] == 1
    assert doc["failures"] == 0
    assert len(doc["checks"]) == 6


def test_unwritable_report_path_is_a_usage_error(tmp_path, capsys):
    # exit 1 means a failed check; a report that cannot be written is a
    # usage error (2) with one stderr line, on every route that writes one
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text("groups = A1\nchecks = degrees_consistency\n")
    missing = tmp_path / "missing" / "report.json"
    out_cfg = tmp_path / "out.cfg"
    out_cfg.write_text("groups = A1\nchecks = degrees_consistency\n"
                       f"output_path = {missing}\n")
    routes = [
        ["suite", "--config", str(cfg_path), "--json", str(missing)],
        ["suite", "--config", str(out_cfg)],
        ["verify", "--check", "degrees_consistency", "--type", "A1",
         "--json", str(missing)],
        ["integrate", "--type", "A1", "--k", "1", "--samples", "20000",
         "--shards", "2", "--json", str(missing)],
    ]
    for argv in routes:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("cannot write report:"), (argv, err)
        assert err.count("\n") == 1, (argv, err)
    assert not missing.parent.exists()


def test_default_threads_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("COXDUNKL_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_threads() == 1


def test_cli_suite_missing_config(capsys):
    assert main(["suite", "--config", "/nonexistent/path.cfg"]) == 2


def test_cli_suite_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("groups = Z1\n")
    assert main(["suite", "--config", str(cfg_path)]) == 2


def test_cli_suite_budget_exit(tmp_path, capsys):
    cfg_path = tmp_path / "budget.cfg"
    cfg_path.write_text("groups = E6\nchecks = degrees_consistency\n"
                        "enumeration_budget = 2000\n")
    assert main(["suite", "--config", str(cfg_path)]) == 3


_MIXED = """groups = A2, B3
checks = poincare_identity, b_poly, mm_exact_k1, functional_equation, \
gamma_cross_check, log_moments
mc_samples = 50000
"""


def test_cli_suite_reports_do_not_depend_on_the_thread_count(tmp_path):
    # exact and statistical checks on two ranks, through the command line
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("COXDUNKL_THREADS", None)
    cfg_path = tmp_path / "mixed.cfg"
    cfg_path.write_text(_MIXED)
    docs = []
    for threads in ("1", "2"):
        json_path = tmp_path / f"report{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "coxdunkl", "--threads", threads, "suite",
             "--config", str(cfg_path), "--json", str(json_path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(json_path.read_text())
        for check in doc["checks"]:
            del check["runtime_ms"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert len(docs[0]["checks"]) == 12
    assert {(c["mode"], c["status"]) for c in docs[0]["checks"]} >= {
        ("exact", "pass"), ("statistical", "pass")}


_BLAS_PINNING = """
import json, os, sys
sys.path.insert(0, {src!r})
from coxdunkl.cli import BLAS_THREAD_VARS, main
assert "numpy" not in sys.modules
assert main(["integrate", "--type", "A1", "--k", "1/2", "--samples", "1000",
             "--shards", "2"]) == 0
assert "numpy" in sys.modules
print(json.dumps({{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}))
"""


def test_cli_pins_unset_blas_thread_variables_before_numpy_loads():
    # a fresh isolated interpreter: the unset variables are pinned to 1,
    # the one the user set is kept
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["MKL_NUM_THREADS"] = "3"
    proc = subprocess.run([sys.executable, "-I", "-c",
                           _BLAS_PINNING.format(src=src)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "3"}


_COLD_START = """
import sys
sys.path.insert(0, {src!r})
import coxdunkl
assert not {{"dataclasses", "inspect", "json"}} & set(sys.modules), (
    "import coxdunkl loaded dataclasses, inspect or json")
from coxdunkl.suite import SuiteConfig, group_context, group_info, run_check

cfg = SuiteConfig()
for label in ("A3", "B3", "I2(5)", "I2(12)"):
    ctx = group_context(label)
    for check in ("poincare_identity", "chevalley", "psi_identities",
                  "b_poly", "mm_exact_k1"):
        status = run_check(check, ctx, cfg).status
        assert status == "pass", (label, check, status)
assert group_info("F4")["order"] == 1152
assert "numpy" not in sys.modules, "exact work loaded numpy"
assert "hashlib" not in sys.modules, "exact work loaded hashlib"
rep = run_check("log_moments", group_context("A3"),
                SuiteConfig(mc_samples=20000, shards=2))
assert rep.status == "pass", rep
assert "numpy" in sys.modules and "hashlib" in sys.modules
"""


def test_exact_work_runs_without_numpy():
    # a fresh isolated interpreter: only the Monte Carlo sampler loads numpy
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-I", "-c",
                           _COLD_START.format(src=src)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
