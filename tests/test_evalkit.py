import csv
import enum
import io
import random
import re

import numpy as np
import pytest

from cbdetect import (
    AggressionLabel,
    ConfusionMatrix,
    CyberbullyingLabel,
    EvalError,
    EvalReport,
    ParseFailurePolicy,
    build_confusion,
    compute_metrics,
    reference_reports,
    render_grid,
)


class AB(enum.IntEnum):
    A = 0
    B = 1

    @property
    def display_name(self):
        return self.name


def brute_force_metrics(counts, n_classes):
    """Independent per-class formula evaluation in plain Python."""
    per_class = []
    total = sum(sum(row) for row in counts)
    correct = sum(counts[i][i] for i in range(n_classes))
    for c in range(n_classes):
        tp = counts[c][c]
        fp = sum(counts[g][c] for g in range(n_classes)) - tp
        fn = sum(counts[c][p] for p in range(n_classes)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    macro_p = sum(p for p, _, _ in per_class) / n_classes
    macro_r = sum(r for _, r, _ in per_class) / n_classes
    macro_f1 = sum(f for _, _, f in per_class) / n_classes
    return per_class, correct / total, macro_p, macro_r, macro_f1


class TestWorkedExample:
    def test_gold_aabb_pred_abbb(self):
        pairs = [(AB.A, AB.A), (AB.A, AB.B), (AB.B, AB.B), (AB.B, AB.B)]
        cm = build_confusion(pairs, AB)
        assert cm.counts.tolist() == [[1, 1], [0, 2]]
        report = compute_metrics(cm)
        metrics_a = report.per_class[AB.A]
        metrics_b = report.per_class[AB.B]
        assert metrics_a.precision == pytest.approx(1.0, abs=1e-12)
        assert metrics_a.recall == pytest.approx(0.5, abs=1e-12)
        assert metrics_a.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert metrics_b.precision == pytest.approx(2 / 3, abs=1e-12)
        assert metrics_b.recall == pytest.approx(1.0, abs=1e-12)
        assert metrics_b.f1 == pytest.approx(0.8, abs=1e-12)
        assert report.macro_f1 == pytest.approx((2 / 3 + 0.8) / 2, abs=1e-12)

    def test_all_correct(self):
        pairs = [(lab, lab) for lab in AggressionLabel] * 3
        report = compute_metrics(build_confusion(pairs, AggressionLabel))
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0

    def test_absent_class_scores_zero_and_drags_macro(self):
        pairs = [(AggressionLabel.NAG, AggressionLabel.NAG)] * 4
        report = compute_metrics(build_confusion(pairs, AggressionLabel))
        assert report.per_class[AggressionLabel.OAG].f1 == 0.0
        assert report.macro_f1 == pytest.approx(1 / 3, abs=1e-12)


class TestBuildConfusion:
    def test_perfect_stub_run_is_diagonal(self, cyberbullying_fixture):
        pairs = [(p.label, p.label) for p in cyberbullying_fixture]
        cm = build_confusion(pairs, CyberbullyingLabel)
        assert np.array_equal(cm.counts, np.diag([3, 3, 3, 3]))
        assert cm.counts.sum(axis=1).tolist() == [3, 3, 3, 3]

    def test_parse_failure_accounting(self, cyberbullying_fixture):
        pairs = [(p.label, p.label) for p in cyberbullying_fixture]
        pairs[5] = (pairs[5][0], None)
        cm = build_confusion(pairs, CyberbullyingLabel)
        assert cm.counts.sum() == 11
        assert cm.n_parse_failures == 1
        assert cm.n_records == 12

    def test_mixed_tasks_rejected(self):
        pairs = [(AggressionLabel.NAG, AggressionLabel.NAG)]
        with pytest.raises(EvalError, match="share one task"):
            build_confusion(pairs, CyberbullyingLabel)

    def test_empty_matrix_rejected(self):
        cm = ConfusionMatrix(
            label_space=AB, counts=np.zeros((2, 2), dtype=int), failures_by_gold=np.zeros(2, dtype=int)
        )
        with pytest.raises(EvalError, match="empty"):
            compute_metrics(cm)


class TestPolicies:
    def test_exclude_and_report_ignores_failures(self):
        pairs = [(AB.A, AB.A), (AB.A, None), (AB.B, AB.B)]
        cm = build_confusion(pairs, AB)
        report = compute_metrics(cm, policy=ParseFailurePolicy.EXCLUDE_AND_REPORT)
        assert report.accuracy == 1.0
        assert report.n_parse_failures == 1

    def test_count_as_error_class_hits_recall_and_accuracy(self):
        pairs = [(AB.A, AB.A), (AB.A, None), (AB.B, AB.B)]
        cm = build_confusion(pairs, AB)
        report = compute_metrics(cm, policy=ParseFailurePolicy.COUNT_AS_ERROR_CLASS)
        assert report.accuracy == pytest.approx(2 / 3, abs=1e-12)
        assert report.per_class[AB.A].recall == pytest.approx(0.5, abs=1e-12)
        assert report.per_class[AB.A].precision == 1.0


class TestProperties:
    def test_oracle_equivalence_random_matrices(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(2, 6)
            counts = [[rng.randint(0, 20) for _ in range(n)] for _ in range(n)]
            if sum(map(sum, counts)) == 0:
                counts[0][0] = 1
            space = enum.IntEnum("Space", {f"C{i}": i for i in range(n)})
            cm = ConfusionMatrix(
                label_space=space,
                counts=np.array(counts, dtype=int),
                failures_by_gold=np.zeros(n, dtype=int),
            )
            report = compute_metrics(cm)
            per_class, accuracy, macro_p, macro_r, macro_f1 = brute_force_metrics(counts, n)
            assert abs(report.accuracy - accuracy) <= 1e-12
            assert abs(report.macro_precision - macro_p) <= 1e-12
            assert abs(report.macro_recall - macro_r) <= 1e-12
            assert abs(report.macro_f1 - macro_f1) <= 1e-12
            for i, lab in enumerate(space):
                assert abs(report.per_class[lab].precision - per_class[i][0]) <= 1e-12
                assert abs(report.per_class[lab].recall - per_class[i][1]) <= 1e-12
                assert abs(report.per_class[lab].f1 - per_class[i][2]) <= 1e-12

    def test_metric_bounds(self):
        rng = random.Random(3)
        for _ in range(50):
            counts = [[rng.randint(0, 20) for _ in range(3)] for _ in range(3)]
            counts[1][1] += 1
            cm = ConfusionMatrix(
                label_space=AggressionLabel,
                counts=np.array(counts),
                failures_by_gold=np.zeros(3, dtype=int),
            )
            report = compute_metrics(cm)
            values = [report.accuracy, report.macro_precision, report.macro_recall, report.macro_f1]
            values += [m for pc in report.per_class.values() for m in (pc.precision, pc.recall, pc.f1)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert report.accuracy == np.trace(np.array(counts)) / np.array(counts).sum()

    def test_label_permutation_invariance(self):
        counts = np.array([[5, 2, 1], [0, 7, 3], [2, 2, 8]])
        cm = ConfusionMatrix(
            label_space=AggressionLabel, counts=counts, failures_by_gold=np.zeros(3, dtype=int)
        )
        base_report = compute_metrics(cm)
        perm = [2, 0, 1]
        permuted = counts[np.ix_(perm, perm)]
        cm_perm = ConfusionMatrix(
            label_space=AggressionLabel, counts=permuted, failures_by_gold=np.zeros(3, dtype=int)
        )
        perm_report = compute_metrics(cm_perm)
        assert perm_report.accuracy == pytest.approx(base_report.accuracy, abs=1e-15)
        assert perm_report.macro_f1 == pytest.approx(base_report.macro_f1, abs=1e-15)
        assert perm_report.macro_precision == pytest.approx(base_report.macro_precision, abs=1e-15)

    def test_adding_a_correct_prediction_never_decreases_accuracy(self):
        rng = random.Random(23)
        for _ in range(50):
            counts = np.array([[rng.randint(0, 20) for _ in range(3)] for _ in range(3)])
            counts[0][0] += 1
            cm = ConfusionMatrix(
                label_space=AggressionLabel, counts=counts, failures_by_gold=np.zeros(3, dtype=int)
            )
            before = compute_metrics(cm).accuracy
            bumped = counts.copy()
            bumped[1][1] += 1
            cm2 = ConfusionMatrix(
                label_space=AggressionLabel, counts=bumped, failures_by_gold=np.zeros(3, dtype=int)
            )
            assert compute_metrics(cm2).accuracy >= before


class TestGrid:
    def test_reference_fixture_renders_published_values(self):
        grid = render_grid(reference_reports())
        # spot-check the first model's rows exactly as printed
        assert "0.54" in grid.text and "0.56" in grid.text
        reader = csv.DictReader(io.StringIO(grid.csv_text))
        cells = {
            (row["model"], row["method"], row["task"]): float(row["macro_f1"])
            for row in reader
        }
        assert cells[("Gemma-2-2B", "zero_shot", "aggression")] == 0.54
        assert cells[("Gemma-2-2B", "few_shot", "aggression")] == 0.56
        assert cells[("Gemma-2-2B", "lora_sft", "aggression")] == 0.67
        assert cells[("Gemma-2-2B", "mtl", "aggression")] == 0.51
        assert cells[("Gemma-2-2B", "epp", "aggression")] == 0.67
        assert cells[("Gemma-2-2B", "zero_shot", "cyberbullying")] == 0.63
        assert cells[("Gemma-2-2B", "few_shot", "cyberbullying")] == 0.83
        assert cells[("Gemma-2-2B", "lora_sft", "cyberbullying")] == 0.84
        assert cells[("Gemma-2-2B", "mtl", "cyberbullying")] == 0.90
        assert cells[("Gemma-2-2B", "epp", "cyberbullying")] == 0.99

    def test_aggression_lora_equals_epp_for_every_model(self):
        reports = reference_reports()
        for model in ("Gemma-2-2B", "Gemma-2-9B", "Gemma-3-4B"):
            lora = reports[(model, "lora_sft", "aggression")].macro_f1
            epp = reports[(model, "epp", "aggression")].macro_f1
            assert lora == epp

    def test_best_cell_emphasized_including_ties(self):
        grid = render_grid(reference_reports())
        line = next(l for l in grid.text.splitlines() if l.startswith("Gemma-2-2B"))
        assert "*0.67*" in line  # tied best appears twice, both marked
        assert line.count("*0.67*") == 2
        assert "*0.99*" in line

    def test_csv_rows_follow_the_text_order(self):
        items = list(reference_reports().items())
        random.Random(3).shuffle(items)
        rows = list(csv.DictReader(io.StringIO(render_grid(dict(items)).csv_text)))
        keys = [(row["model"], row["task"], row["method"]) for row in rows]
        tasks = ("aggression", "cyberbullying")
        methods = ("zero_shot", "few_shot", "lora_sft", "mtl", "epp")
        assert keys == sorted(keys, key=lambda k: (k[0], tasks.index(k[1]), methods.index(k[2])))
        assert len(keys) == len(items)

    @pytest.mark.parametrize(
        "key", [("m", "custom", "aggression"), ("m", "zero_shot", "custom")], ids=["method", "task"]
    )
    def test_key_without_a_grid_column_rejected(self, key):
        known = ("m", "epp", "aggression")
        reports = {known: EvalReport.from_macro_f1(0.6), key: EvalReport.from_macro_f1(0.5)}
        with pytest.raises(EvalError, match=re.escape(str(key))):
            render_grid(reports)

    def test_single_report_renders_without_emphasis(self):
        report = EvalReport.from_macro_f1(0.5)
        grid = render_grid({("m", "zero_shot", "aggression"): report})
        assert "*" not in grid.text.split("\n")[-2]
        assert "0.50" in grid.text

    def test_empty_reports_rejected(self):
        with pytest.raises(EvalError, match="no reports"):
            render_grid({})

    def test_written_files_hold_the_rendered_bytes_on_a_crlf_platform(self, tmp_path, crlf_platform):
        grid = render_grid(reference_reports())
        grid.write(tmp_path / "grid.txt", tmp_path / "grid.csv")
        assert (tmp_path / "grid.txt").read_bytes() == grid.text.encode("utf-8")
        assert (tmp_path / "grid.csv").read_bytes() == grid.csv_text.encode("utf-8")

    def test_parse_failure_count_shown_next_to_metric(self):
        pairs = [(AB.A, AB.A), (AB.A, None), (AB.B, AB.B)]
        report = compute_metrics(build_confusion(pairs, AB))
        grid = render_grid({("m", "zero_shot", "aggression"): report})
        row = next(l for l in grid.text.splitlines() if l.startswith("m "))
        assert "(1)" in row
        assert "unparseable" in grid.text.splitlines()[2]
