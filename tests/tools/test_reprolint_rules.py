"""Per-rule fixture tests for reprolint.

Every rule gets (at least) one violating fixture — asserting detection,
rule code, and the exact line — and one clean fixture asserting no false
positive.  The fixtures are distilled from the real engine code shapes in
``core/batch.py`` / ``sim/flood.py`` / ``adversary/``, so seeding the
corresponding de-optimization into a scratch copy of the engine is
exactly what these snippets simulate.
"""

import textwrap

import pytest

from reprolint import lint_source
from reprolint.rules import ALL_RULES, RULES_BY_CODE

BATCH = "src/repro/core/batch.py"
FLOOD = "src/repro/sim/flood.py"
SWEEP = "src/repro/core/sweep.py"
STRATEGIES = "src/repro/adversary/strategies.py"


def lint(source, path, code):
    """Lint dedented ``source`` as ``path`` with the single rule ``code``."""
    return lint_source(
        textwrap.dedent(source), path, rules=[RULES_BY_CODE[code]]
    )


def test_rule_registry_complete():
    assert [rule.code for rule in ALL_RULES] == [
        "R001",
        "R002",
        "R003",
        "R004",
        "R005",
        "R006",
    ]
    assert all(rule.summary for rule in ALL_RULES)


# ----------------------------------------------------------------------
# R001 - no scalar Python loops over trials/nodes in the hot path.
# ----------------------------------------------------------------------
class TestR001:
    def test_per_trial_loop_inside_round_loop(self):
        # The canonical de-optimization: per-trial scalar work inside the
        # flooding round loop that neighbor_max_stacked exists to batch.
        findings = lint(
            """
            def _run_batched_group(kernel, phase, cur, sent, b_live):
                for t in range(1, phase + 1):
                    for trial in range(b_live):
                        sent[:, trial] = cur[:, trial]
            """,
            BATCH,
            "R001",
        )
        assert len(findings) == 1
        assert findings[0].code == "R001"
        assert findings[0].line == 4

    def test_per_node_loop_in_kernel_method(self):
        findings = lint(
            """
            class FloodKernel:
                def neighbor_max(self, sent, out=None):
                    for v in range(self.n):
                        out[v] = max(sent[u] for u in self.neighbors(v))
                    return out
            """,
            FLOOD,
            "R001",
        )
        assert [f.line for f in findings] == [4]

    def test_while_loop_inside_round_loop(self):
        findings = lint(
            """
            def _run(phase, recv, kernel, sent):
                for t in range(1, phase + 1):
                    row = 0
                    while row < 8:
                        row += 1
            """,
            BATCH,
            "R001",
        )
        assert [f.line for f in findings] == [5]

    def test_clean_real_round_loop_shape(self):
        # Distilled from _run_byzantine_batched_group: plan-structure
        # loops inside rounds are legal, as is per-trial work at
        # subphase level and the per-slot gather in the stacked kernel.
        findings = lint(
            """
            def _run(phase, live, groups_by_round, suppress_pairs, kernel, sent, recv):
                for row, trial in enumerate(live):
                    pass
                for t in range(1, phase + 1):
                    for nodes, cols, vals in groups_by_round[t]:
                        pass
                    for nodes_g, cols_g in suppress_pairs:
                        pass
                    kernel.neighbor_max_stacked(sent, out=recv)
            """,
            BATCH,
            "R001",
        )
        assert findings == []

    def test_clean_degree_slot_loop_in_kernel(self):
        findings = lint(
            """
            class FloodKernel:
                def neighbor_max_stacked(self, values, out=None):
                    cols = self._cols()
                    result = np.maximum(values[cols[0]], values[cols[1]], out=out)
                    for j in range(2, self._uniform_degree):
                        np.maximum(result, values[cols[j]], out=result)
                    return result
            """,
            FLOOD,
            "R001",
        )
        assert findings == []

    def test_out_of_scope_module_not_flagged(self):
        findings = lint(
            """
            def run(phase, n, out):
                for t in range(1, phase + 1):
                    for v in range(n):
                        out[v] += 1
            """,
            "src/repro/core/runner.py",
            "R001",
        )
        assert findings == []


# ----------------------------------------------------------------------
# R002 - dtype-ladder policy for engine color state.
# ----------------------------------------------------------------------
class TestR002:
    def test_unconditional_int64_state_allocation(self):
        findings = lint(
            """
            def _run(n, b_live):
                cur = np.empty((n, b_live), dtype=np.int64)
                return cur
            """,
            BATCH,
            "R002",
        )
        assert len(findings) == 1
        assert findings[0].code == "R002"
        assert findings[0].line == 3

    def test_unguarded_astype_widening(self):
        findings = lint(
            """
            def _run(colors):
                colors = colors.astype(np.int64)
                return colors
            """,
            BATCH,
            "R002",
        )
        assert [f.line for f in findings] == [3]

    def test_platform_int_dtype(self):
        findings = lint(
            """
            def _run(n):
                decided = np.zeros(n, dtype=int)
                return decided
            """,
            BATCH,
            "R002",
        )
        assert [f.line for f in findings] == [3]
        assert findings[0].autofixable

    def test_clean_guarded_widening_block(self):
        # The real lazy-widening site: int64 state is legal under the
        # _INT32_MAX overflow guard and inside _validate_batch_plan.
        findings = lint(
            """
            def _run(plan_max, plan_min, state_dtype, colors, n, b_live):
                if (
                    plan_max > _INT32_MAX or plan_min < _INT32_MIN
                ) and state_dtype == np.int32:
                    state_dtype = np.int64
                    colors = colors.astype(np.int64)
                    cur = np.empty((n, b_live), dtype=np.int64)
                    sent = np.empty_like(cur)


            def _validate_batch_plan(plan, byz_count, batch):
                initial = np.asarray(plan.initial_colors, dtype=np.int64)
                counts = np.zeros(batch, dtype=np.int64)
                return initial, counts
            """,
            BATCH,
            "R002",
        )
        assert findings == []

    def test_plan_validator_is_the_sanctioned_helper(self):
        # int64 plan values bound to an engine-state name are legal only
        # inside the plan validator; the same body elsewhere is flagged.
        body = """
            def {name}(plan, byz_count, batch):
                colors = np.asarray(plan.initial_colors, dtype=np.int64)
                return colors
            """
        assert lint(body.format(name="_validate_batch_plan"), BATCH, "R002") == []
        for name in ("_normalize_batch_plan", "_apply_plan"):
            findings = lint(body.format(name=name), BATCH, "R002")
            assert [f.line for f in findings] == [3], name

    def test_clean_int32_state_and_int64_bookkeeping(self):
        findings = lint(
            """
            def _run(n, b_live, batch, state_dtype):
                cur_t = np.empty((n, b_live), dtype=np.int32)
                colors = np.zeros((n, b_live), dtype=state_dtype)
                senders = np.zeros(b_live, dtype=np.int64)
                decided = np.full((batch, n), UNDECIDED, dtype=np.int64)
            """,
            BATCH,
            "R002",
        )
        assert findings == []

    def test_scalar_engine_module_not_flagged(self):
        # runner.py's scalar engine is int64 by design.
        findings = lint(
            """
            def run_counting(n):
                colors = np.zeros(n, dtype=np.int64)
                cur = np.zeros(n, dtype=np.int64)
            """,
            "src/repro/core/runner.py",
            "R002",
        )
        assert findings == []


# ----------------------------------------------------------------------
# R003 - no array allocation inside per-round loops.
# ----------------------------------------------------------------------
class TestR003:
    def test_allocation_inside_round_loop(self):
        findings = lint(
            """
            def _run(phase, n, b_live, kernel, cur):
                for t in range(1, phase + 1):
                    recv = np.empty((n, b_live), dtype=np.int32)
                    kernel.neighbor_max_stacked(cur, out=recv)
            """,
            BATCH,
            "R003",
        )
        assert len(findings) == 1
        assert findings[0].code == "R003"
        assert findings[0].line == 4

    def test_concatenate_inside_round_loop(self):
        findings = lint(
            """
            def _run(phase, parts):
                for t in range(1, phase + 1):
                    sent = np.concatenate(parts)
            """,
            FLOOD,
            "R003",
        )
        assert [f.line for f in findings] == [4]

    def test_clean_preallocated_round_loop(self):
        # The real shape: buffers allocated at subphase setup, rounds
        # update them in place.
        findings = lint(
            """
            def _run(phase, n, b_live, kernel):
                cur = np.empty((n, b_live), dtype=np.int32)
                recv = np.empty((n, b_live), dtype=np.int32)
                for t in range(1, phase + 1):
                    kernel.neighbor_max_stacked(cur, out=recv)
                    np.maximum(cur, recv, out=cur)
            """,
            BATCH,
            "R003",
        )
        assert findings == []

    def test_clean_subphase_level_allocation(self):
        findings = lint(
            """
            def _run(n_sub, b_live, counts_g):
                for sub in range(1, n_sub + 1):
                    for t, cnts in counts_g.items():
                        acc = np.zeros(b_live, dtype=np.int64)
            """,
            BATCH,
            "R003",
        )
        assert findings == []


# ----------------------------------------------------------------------
# R004 - Adversary subclasses must port the batch protocol.
# ----------------------------------------------------------------------
class TestR004:
    def test_scalar_only_subphase_plan(self):
        findings = lint(
            """
            class BurstAdversary(Adversary):
                def subphase_plan(self, state):
                    return SubphasePlan(initial_colors=None, injections=[])
            """,
            STRATEGIES,
            "R004",
        )
        assert len(findings) == 1
        assert findings[0].code == "R004"
        assert findings[0].line == 2
        assert "batch_subphase_plan" in findings[0].message

    def test_scalar_only_topology_claims(self):
        findings = lint(
            """
            class QuietLiarAdversary(Adversary):
                def topology_claims(self):
                    return {}

                def subphase_plan(self, state):
                    return None

                def batch_subphase_plan(self, state):
                    return None
            """,
            STRATEGIES,
            "R004",
        )
        assert [f.line for f in findings] == [2]
        assert "batch_topology_claims" in findings[0].message

    def test_clean_paired_hooks(self):
        # The real strategy shape: every scalar hook has its batch twin,
        # and overriding only bind() is fine (bind_batch delegates).
        findings = lint(
            """
            class TopologyLiarAdversary(Adversary):
                def bind(self, network, byz_mask, rng, config):
                    super().bind(network, byz_mask, rng, config)

                def topology_claims(self):
                    return self._claims

                def batch_topology_claims(self):
                    return [self._claims]

                def subphase_plan(self, state):
                    return SubphasePlan()

                def batch_subphase_plan(self, state):
                    return BatchSubphasePlan()
            """,
            STRATEGIES,
            "R004",
        )
        assert findings == []

    def test_clean_no_overrides_and_wrapper(self):
        findings = lint(
            """
            class HonestAdversary(Adversary):
                name = "honest"


            class PerColumn(PerTrialAdversaryBatch):
                def subphase_plan(self, state):
                    return None
            """,
            STRATEGIES,
            "R004",
        )
        assert findings == []

    def test_disable_comment_escape_hatch(self):
        findings = lint(
            """
            class LegacyAdversary(Adversary):  # reprolint: disable=R004
                def subphase_plan(self, state):
                    return None
            """,
            STRATEGIES,
            "R004",
        )
        assert findings == []


# ----------------------------------------------------------------------
# R005 - Generator-only RNG discipline.
# ----------------------------------------------------------------------
class TestR005:
    def test_default_rng_call(self):
        findings = lint(
            """
            def run(scale, seed):
                rng = np.random.default_rng(seed)
                return rng
            """,
            "src/repro/experiments/e12_figure1.py",
            "R005",
        )
        assert len(findings) == 1
        assert findings[0].code == "R005"
        assert findings[0].line == 3

    def test_legacy_global_state_calls(self):
        findings = lint(
            """
            def run(n):
                np.random.seed(0)
                return np.random.randint(0, n)
            """,
            "src/repro/core/coreset.py",
            "R005",
        )
        assert [f.line for f in findings] == [3, 4]

    def test_clean_generator_annotations_and_isinstance(self):
        # Type annotations and isinstance checks mention np.random but
        # call nothing; make_rng-produced Generators draw freely.
        findings = lint(
            """
            def run(seed: int | np.random.Generator | None = 0):
                if isinstance(seed, np.random.Generator):
                    return seed
                rng = make_rng(seed)
                return int(rng.integers(8))
            """,
            "src/repro/core/sweep.py",
            "R005",
        )
        assert findings == []

    def test_rng_module_exempt(self):
        findings = lint(
            """
            def make_rng(seed):
                return np.random.default_rng(np.random.SeedSequence([0, seed]))
            """,
            "src/repro/sim/rng.py",
            "R005",
        )
        assert findings == []


# ----------------------------------------------------------------------
# R006 - eager validation before array compute in entry points.
# ----------------------------------------------------------------------
class TestR006:
    def test_compute_before_validation(self):
        findings = lint(
            """
            def run_counting_batch(network, seeds, config=None, byz_mask=None):
                byz_bn = np.zeros((len(seeds), network.n), dtype=bool)
                configs = _normalize_configs(config, len(seeds))
                return configs, byz_bn
            """,
            BATCH,
            "R006",
        )
        assert len(findings) == 1
        assert findings[0].code == "R006"
        assert findings[0].line == 3
        assert "before its first validator" in findings[0].message

    def test_missing_validator(self):
        findings = lint(
            """
            def run_sweep(network, seeds):
                return np.zeros(len(seeds))
            """,
            SWEEP,
            "R006",
        )
        assert [f.line for f in findings] == [2]
        assert "never calls a typed validator" in findings[0].message

    def test_clean_validate_first(self):
        # The real entry-point shape: typed normalizers run before the
        # first np.* call (raises aside, which are not array compute).
        findings = lint(
            """
            def run_counting_batch(network, seeds, config=None, byz_mask=None):
                seeds = list(seeds)
                batch = len(seeds)
                configs = _normalize_configs(config, batch)
                byz_bn = _normalize_byz_masks(byz_mask, batch, network.n)
                if byz_bn is None:
                    byz_bn = np.zeros((batch, network.n), dtype=bool)
                return configs, byz_bn
            """,
            BATCH,
            "R006",
        )
        assert findings == []

    def test_non_entry_point_not_checked(self):
        findings = lint(
            """
            def _run_batched_group(network, seeds, config):
                return np.zeros(len(seeds))
            """,
            BATCH,
            "R006",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Cross-cutting: suppression comments and real-tree sanity.
# ----------------------------------------------------------------------
class TestSuppression:
    SOURCE = """
    def _run(n, b_live):
        cur = np.empty((n, b_live), dtype=np.int64)  # reprolint: disable=R002
        # reprolint: disable=R002
        sent = np.empty((n, b_live), dtype=np.int64)
        recv = np.empty((n, b_live), dtype=np.int64)
    """

    def test_same_line_and_preceding_comment(self):
        findings = lint(self.SOURCE, BATCH, "R002")
        assert [f.line for f in findings] == [6]

    def test_disable_all(self):
        findings = lint(
            """
            def _run(n):
                cur = np.empty(n, dtype=np.int64)  # reprolint: disable=all
            """,
            BATCH,
            "R002",
        )
        assert findings == []

    def test_disable_other_code_does_not_suppress(self):
        findings = lint(
            """
            def _run(n):
                cur = np.empty(n, dtype=np.int64)  # reprolint: disable=R001
            """,
            BATCH,
            "R002",
        )
        assert [f.line for f in findings] == [3]


# ----------------------------------------------------------------------
# Path-scoped rule exemptions (PATH_RULE_EXEMPTIONS).
# ----------------------------------------------------------------------
class TestPathScopedExemptions:
    # A compiled-kernel shape: a scalar loop over node rows plus a fresh
    # per-call buffer — both R001 and R003 violations anywhere else in
    # the hot path, both the *point* of a backend module.
    KERNEL_SNIPPET = """
        import numpy as np

        def _stacked_csr(values, indptr, indices, out):
            n = out.shape[0]
            for v in range(n):
                out[v] = values[indices[indptr[v]]]

        def neighbor_max_stacked(kernel, values, out=None):
            buf = np.empty(values.shape, dtype=values.dtype)
            return buf
        """
    BACKEND = "src/repro/sim/backends/numba_backend.py"

    def test_rules_fire_on_backend_modules_without_the_exemption(self):
        # The rules themselves treat every backend function as kernel
        # scope — checked directly so the exemption is proven to be
        # load-bearing, not suppressing nothing.
        from reprolint.engine import ModuleContext

        ctx = ModuleContext(textwrap.dedent(self.KERNEL_SNIPPET), self.BACKEND)
        assert [f.code for f in RULES_BY_CODE["R001"].check(ctx)] == ["R001"]
        assert [f.code for f in RULES_BY_CODE["R003"].check(ctx)] == ["R003"]

    def test_exemption_suppresses_for_backend_paths(self):
        assert lint_source(textwrap.dedent(self.KERNEL_SNIPPET), self.BACKEND) == []

    def test_other_hot_path_modules_keep_both_rules(self):
        findings = lint(
            """
            import numpy as np

            def _run(rounds, batch, cur):
                for t in range(rounds):
                    recv = np.empty_like(cur)
                    for b in range(batch):
                        recv[b] = cur[b]
            """,
            BATCH,
            "R001",
        ) + lint(
            """
            import numpy as np

            def _run(rounds, cur):
                for t in range(rounds):
                    recv = np.empty_like(cur)
            """,
            BATCH,
            "R003",
        )
        assert sorted({f.code for f in findings}) == ["R001", "R003"]

    def test_exemption_does_not_cover_other_codes(self):
        # Only R001/R003 are path-exempted; the rng discipline still
        # applies to backend modules.
        findings = lint_source(
            textwrap.dedent(
                """
                import numpy as np

                def neighbor_max(kernel, sent):
                    rng = np.random.default_rng(0)
                    return rng
                """
            ),
            self.BACKEND,
        )
        assert [f.code for f in findings] == ["R005"]

    def test_exempt_codes_for_matches_by_fragment(self):
        from reprolint.rules import exempt_codes_for

        assert exempt_codes_for(self.BACKEND) == {"R001", "R003"}
        assert exempt_codes_for("src/repro/core/batch.py") == frozenset()


class TestChaosPathExemption:
    # The chaos harness draws its fault schedule straight from
    # numpy.random so injection decisions can never share (or perturb)
    # the simulation's seed universe — the one module where bypassing
    # repro.sim.rng is the correct design.
    CHAOS = "src/repro/exec/chaos.py"
    SNIPPET = """
        import numpy as np

        def fault_for(seed, index, attempt):
            rng = np.random.default_rng(np.random.SeedSequence([seed, index, attempt]))
            return float(rng.random())
        """

    def test_r005_fires_on_the_shape_without_the_exemption(self):
        # Proves the exemption is load-bearing on a distilled snippet.
        from reprolint.engine import ModuleContext

        ctx = ModuleContext(textwrap.dedent(self.SNIPPET), self.CHAOS)
        findings = RULES_BY_CODE["R005"].check(ctx)
        # default_rng and SeedSequence are flagged separately.
        assert [f.code for f in findings] == ["R005", "R005"]

    def test_r005_fires_on_the_real_module_without_the_exemption(self):
        # And on the shipped source itself: remove the exemption and the
        # linter would flag chaos.py, so the entry is not dead config.
        from pathlib import Path

        from reprolint.engine import ModuleContext

        root = Path(__file__).resolve().parents[2]
        source = (root / self.CHAOS).read_text(encoding="utf-8")
        ctx = ModuleContext(source, self.CHAOS)
        findings = RULES_BY_CODE["R005"].check(ctx)
        assert findings and {f.code for f in findings} == {"R005"}
        assert lint_source(source, self.CHAOS) == []

    def test_exemption_suppresses_only_for_chaos(self):
        assert lint_source(textwrap.dedent(self.SNIPPET), self.CHAOS) == []
        findings = lint_source(
            textwrap.dedent(self.SNIPPET), "src/repro/exec/resilience.py"
        )
        assert findings and {f.code for f in findings} == {"R005"}

    def test_exempt_codes_for_chaos(self):
        from reprolint.rules import exempt_codes_for

        assert exempt_codes_for(self.CHAOS) == {"R005"}
        assert exempt_codes_for("src/repro/exec/checkpoint.py") == frozenset()


@pytest.mark.parametrize(
    "module",
    [
        "src/repro/core/batch.py",
        "src/repro/core/sweep.py",
        "src/repro/sim/flood.py",
        "src/repro/sim/backends/numpy_backend.py",
        "src/repro/sim/backends/numba_backend.py",
        "src/repro/adversary/base.py",
        "src/repro/adversary/strategies.py",
        "src/repro/sim/rng.py",
        "src/repro/exec/resilience.py",
        "src/repro/exec/checkpoint.py",
    ],
)
def test_real_engine_modules_are_clean(module):
    """The shipped engine passes every rule with no suppressions."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    source = (root / module).read_text(encoding="utf-8")
    assert lint_source(source, module) == []
