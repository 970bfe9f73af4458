"""Self-test of the benchmark's own arithmetic and accounting, at tiny sizes.

    python3 perfbench/selftest.py

Covers self-time arithmetic, failure accounting with an injected exception,
and the metrics.csv digest leaving out the wall-clock column. Runs in seconds.
"""

import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ops  # noqa: E402
import spans  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload("tiny", "a few steps on an empty highway", (
    "scenario.kind=highway", "scenario.n_background=0", "train.variant=a-ppo",
    "train.total_steps=24", "train.eval_interval=12", "train.rollout_size=12",
    "train.batch_size=6", "train.epochs=1", "train.eval_episodes=1",
))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]
        rec = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
        root = rec.open("root")
        a = rec.open("a")
        b = rec.open("b")
        rec.close(b)
        rec.close(a)
        c = rec.open("c")
        rec.close(c)
        rec.close(root)
        self.assertEqual(spans.self_times(rec.spans), [6, 2, 1, 1])
        self.assertEqual(spans.wall_time(rec.spans), 10)
        stats = spans.LayerStats(rec.spans, repeats=1)
        self.assertEqual(stats.self_share("root"), (0.6, 1))
        self.assertEqual(stats.self_share("a"), (0.2, 1))

    def test_wrapped_call_records_error_and_reraises(self):
        rec = spans.SpanRecorder()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            rec.wrap("boom", boom)()
        self.assertEqual(rec.spans[0][4], {"error": "KeyError"})

    def test_patched_restores_originals(self):
        class Owner:
            def method(self):
                return 1

            @classmethod
            def build(cls):
                return cls

        plain, cm = Owner.__dict__["method"], Owner.__dict__["build"]
        rec = spans.SpanRecorder()
        targets = [spans.Target("m", Owner, "method"), spans.Target("b", Owner, "build"),
                   spans.Target("skipped", Owner, "method", when=lambda *a: False)]
        with spans.patched(rec, targets):
            self.assertEqual(Owner().method(), 1)
            self.assertIs(Owner.build(), Owner)
        self.assertEqual([s[0] for s in rec.spans], ["m", "b"])
        self.assertIs(Owner.__dict__["method"], plain)
        self.assertIs(Owner.__dict__["build"], cm)

    def test_percentile(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(spans.percentile(values, 50), 50.5)
        self.assertAlmostEqual(spans.percentile(values, 90), 90.1)
        self.assertEqual(spans.tail_q(999), 90)
        self.assertEqual(spans.tail_q(1000), 99)


class FailureAccounting(unittest.TestCase):
    def run_tiny(self, tmp, patch=None):
        from drivecoach.trainer import Trainer

        if patch is None:
            return ops.run_repeat(TINY, 3, Path(tmp) / "run", eval_seconds=0.0)
        name, error = patch
        original = Trainer.__dict__[name]

        def inject(*args, **kwargs):
            raise error

        setattr(Trainer, name, inject)
        try:
            return ops.run_repeat(TINY, 3, Path(tmp) / "run", eval_seconds=0.0)
        finally:
            setattr(Trainer, name, original)

    def test_clean_run_passes_every_check(self):
        with tempfile.TemporaryDirectory() as tmp:
            rep = self.run_tiny(tmp)
        self.assertEqual([op for op, err in rep.ops if err is None],
                         ["train", "resume", "evaluate"])
        self.assertEqual(len(rep.eval_rates), 1)
        self.assertEqual(set(rep.digests), set(ops.DIGESTED))

    def test_injected_update_fault_fails_train_and_its_dependents(self):
        with tempfile.TemporaryDirectory() as tmp:
            rep = self.run_tiny(tmp, ("update", RuntimeError("injected fault")))
        self.assertEqual(rep.ops[0], ("train", "RuntimeError: injected fault"))
        self.assertEqual([op for op, _ in rep.ops], ["train", "resume", "evaluate"])
        self.assertTrue(all(err and "injected fault" in err for _, err in rep.ops))
        self.assertFalse(rep.ok("train"))

    def test_injected_evaluate_fault_fails_the_run_that_evaluates(self):
        with tempfile.TemporaryDirectory() as tmp:
            rep = self.run_tiny(tmp, ("evaluate", ValueError("bad eval")))
        # training evaluates in-run, so the fault fails training first
        self.assertEqual(rep.ops[0], ("train", "ValueError: bad eval"))

    def test_injected_resume_fault_spares_training(self):
        with tempfile.TemporaryDirectory() as tmp:
            rep = self.run_tiny(tmp, ("resume", OSError("disk gone")))
        self.assertEqual(rep.ops, [
            ("train", None),
            ("resume", "OSError: disk gone"),
            ("evaluate", "NotRun: resume failed with OSError: disk gone"),
        ])
        self.assertEqual(rep.eval_rates, [])

    def test_failed_evaluation_check_fails_evaluate(self):
        wrong = {"steps": 1, "eval_reward": 1e9, "success_rate": 0.0}
        original = ops.traced_evaluation
        ops.traced_evaluation = lambda path: wrong
        try:
            with tempfile.TemporaryDirectory() as tmp:
                rep = self.run_tiny(tmp)
        finally:
            ops.traced_evaluation = original
        self.assertEqual([op for op, err in rep.ops if err is None], ["train", "resume"])
        self.assertTrue(rep.ops[2][1].startswith("CheckFailed: eval_reward"))

    def test_digest_mismatch_fails_the_later_repeat(self):
        import run

        original = ops.artifact_digests
        calls = []

        def digests(out_dir):
            calls.append(out_dir)
            return {"metrics.csv": str(len(calls))}

        ops.artifact_digests = digests
        try:
            with tempfile.TemporaryDirectory() as tmp:
                done = []
                for _ in range(2):
                    run.one_repeat(ops, TINY, 3, Path(tmp), done, 0.0)
        finally:
            ops.artifact_digests = original
        self.assertTrue(done[0].ok("train"))
        self.assertEqual(done[1].ops[0], (
            "train", "CheckFailed: artifacts differ across repeats of one seed: ['metrics.csv']"))


class Digest(unittest.TestCase):
    HEADER = "step,variant,scenario,success_rate,eval_reward,avg_speed,delta_ttcp,decision_time_s,seed"

    def digest(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            (out / "metrics.csv").write_text("\n".join([self.HEADER, *rows]) + "\n")
            for name in ops.DIGESTED[1:]:
                (out / name).write_text("same\n")
            return ops.artifact_digests(out)["metrics.csv"]

    def test_decision_time_is_left_out(self):
        a = self.digest(["640,A-PPO,highway,0.500,1.0,20.0,5.0,0.001,0"])
        b = self.digest(["640,A-PPO,highway,0.500,1.0,20.0,5.0,0.004,0"])
        self.assertEqual(a, b)

    def test_other_columns_are_kept(self):
        a = self.digest(["640,A-PPO,highway,0.500,1.0,20.0,5.0,0.001,0"])
        b = self.digest(["640,A-PPO,highway,0.500,1.5,20.0,5.0,0.001,0"])
        self.assertNotEqual(a, b)

    def test_drop_column(self):
        self.assertEqual(ops.drop_column("a,b,c\n1,2,3\n", "b"), "a,c\n1,3\n")


if __name__ == "__main__":
    unittest.main()
