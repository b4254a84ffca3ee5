import numpy as np
import pytest

from flowsieve import metrics
from flowsieve.errors import DataError
from flowsieve.records import LabelClass, verdict_table

NMAP = LabelClass.BEING_SCANNED_BY_NMAP
CRYPTO = LabelClass.EXECUTING_CRYPTOMINING
BENIGN = LabelClass.ASSUMED_BENIGN


def _table(malicious, tanh=None, frequent=None) -> np.recarray:
    """Verdict table of flows with the given malicious flags. Tanh scores
    default to 0.9 on malicious flows and 0.1 on the others; the rows
    `frequent` marks carry no cluster fields."""
    malicious = np.asarray(malicious, dtype=bool)
    tanh = np.where(malicious, 0.9, 0.1) if tanh is None else np.asarray(tanh, dtype=float)
    frequent = np.zeros(malicious.shape, dtype=bool) if frequent is None else np.asarray(frequent)
    return verdict_table(
        np.full(malicious.shape, 0.5),
        frequent,
        np.where(frequent, -1, 0),
        np.where(frequent, np.nan, np.arctanh(tanh)),
        np.where(frequent, np.nan, tanh),
        malicious,
    )


def in_scope(outcome: dict) -> int:
    return outcome["tp"] + outcome["fp"] + outcome["tn"] + outcome["fn"]


class TestConfusion:
    def test_counts_by_scenario(self):
        labels = [NMAP, NMAP, CRYPTO, BENIGN, BENIGN, BENIGN]
        # the third flow, of another attack class, is out of scope for NMAP
        verdicts = _table([True, False, True, True, False, False])
        outcome = metrics.confusion(verdicts, labels, NMAP)
        assert outcome == {"tp": 1, "fn": 1, "fp": 1, "tn": 2}
        assert in_scope(outcome) == 5  # crypto flow excluded

    def test_all_benign_verdicts(self):
        labels = [NMAP, BENIGN]
        verdicts = _table([False, False])
        outcome = metrics.confusion(verdicts, labels, NMAP)
        assert outcome["tp"] == 0 and outcome["fp"] == 0

    def test_count_mismatch_errors(self):
        with pytest.raises(DataError):
            metrics.confusion(_table([True]), [NMAP, BENIGN], NMAP)

    def test_benign_scenario_rejected(self):
        with pytest.raises(DataError):
            metrics.confusion([], [], BENIGN)

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        labels = [rng.choice([NMAP, CRYPTO, BENIGN]) for _ in range(200)]
        verdicts = _table([bool(rng.integers(2)) for _ in range(200)])
        for scenario in (NMAP, CRYPTO):
            outcome = metrics.confusion(verdicts, labels, scenario)
            expected = sum(1 for l in labels if l is scenario or l is BENIGN)
            assert in_scope(outcome) == expected


class TestScenarioMetrics:
    def test_published_nmap_counts(self):
        outcome = {"tp": 3032, "fp": 315, "tn": 22157, "fn": 48}
        m = metrics.scenario_metrics(outcome)
        assert m["precision"] == pytest.approx(0.906, abs=1e-3)
        assert m["recall"] == pytest.approx(0.984, abs=1e-3)
        assert m["f1"] == pytest.approx(0.944, abs=1e-3)
        assert m["fpr"] == pytest.approx(0.014, abs=1e-3)

    def test_published_crypto_counts(self):
        outcome = {"tp": 1703, "fp": 315, "tn": 22157, "fn": 0}
        m = metrics.scenario_metrics(outcome)
        assert m["precision"] == pytest.approx(0.844, abs=1e-3)
        assert m["recall"] == pytest.approx(1.000, abs=1e-3)
        assert m["f1"] == pytest.approx(0.915, abs=1e-3)

    def test_zero_over_zero_is_undefined(self):
        outcome = {"tp": 0, "fp": 0, "tn": 5, "fn": 2}
        m = metrics.scenario_metrics(outcome)
        assert m["precision"] is None
        assert m["recall"] == 0.0
        assert m["f1"] is None

    def test_all_zero_recall_denominator(self):
        outcome = {"tp": 0, "fp": 1, "tn": 5, "fn": 0}
        m = metrics.scenario_metrics(outcome)
        assert m["recall"] is None


def brute_force_average_precision(scores, positives):
    """Exhaustive enumeration: recompute the confusion at every distinct
    threshold from scratch."""
    scores = list(scores)
    positives = list(positives)
    total_pos = sum(positives)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for threshold in thresholds:
        tp = sum(1 for s, p in zip(scores, positives) if s >= threshold and p)
        predicted = sum(1 for s in scores if s >= threshold)
        precision = tp / predicted
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestAveragePrecision:
    def test_hand_example(self):
        # thresholds 0.9, 0.8, 0.1 -> AP = (1/2)(1) + 0 + (1/2)(2/3)
        scores = np.array([0.9, 0.8, 0.1])
        positives = np.array([True, False, True])
        assert metrics.average_precision(scores, positives) == pytest.approx(
            0.8333333333, abs=1e-9
        )

    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positives = np.array([True, True, False, False])
        assert metrics.average_precision(scores, positives) == 1.0

    def test_no_positives_errors(self):
        with pytest.raises(DataError):
            metrics.average_precision(np.array([0.5]), np.array([False]))

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 101))
            # quantized scores force plenty of ties
            scores = rng.integers(0, 10, size=n) / 10.0
            positives = rng.random(n) < 0.4
            if not positives.any():
                positives[int(rng.integers(n))] = True
            got = metrics.average_precision(scores, positives)
            want = brute_force_average_precision(scores, positives)
            assert got == want

    def test_uniform_scores_give_prevalence(self):
        scores = np.zeros(10)
        positives = np.array([True] * 3 + [False] * 7)
        assert metrics.average_precision(scores, positives) == pytest.approx(0.3)


class TestAuprcScenario:
    def test_excludes_other_attack_class(self):
        labels = [NMAP, CRYPTO, BENIGN, BENIGN]
        scores = [0.9, 0.95, 0.1, 0.2]
        # crypto flow is out of scope; nmap perfectly separated from benign
        assert metrics.auprc(scores, labels, NMAP) == 1.0

    def test_missing_positives_error(self):
        with pytest.raises(DataError):
            metrics.auprc([0.5], [BENIGN], NMAP)


class TestMacroAverage:
    def test_published_f1_pair(self):
        assert metrics.macro_average([0.944, 0.915]) == pytest.approx(0.929, abs=5e-4)

    def test_published_auprc_pair(self):
        assert metrics.macro_average([0.827, 0.855]) == pytest.approx(0.841, abs=1e-9)

    def test_single_scenario_identity(self):
        assert metrics.macro_average([0.7]) == 0.7

    def test_undefined_propagates(self):
        assert metrics.macro_average([0.9, None]) is None

    def test_empty_errors(self):
        with pytest.raises(DataError):
            metrics.macro_average([])


class TestThresholdMonotonicity:
    def test_raising_tau_never_increases_recall(self):
        rng = np.random.default_rng(2)
        n = 300
        labels = [NMAP if rng.random() < 0.3 else BENIGN for _ in range(n)]
        tanh_scores = rng.random(n)
        taus = np.linspace(0.05, 0.95, 10)
        recalls = []
        benign_predictions = []
        for tau in taus:
            verdicts = _table(tanh_scores >= tau, tanh=tanh_scores)
            outcome = metrics.confusion(verdicts, labels, NMAP)
            m = metrics.scenario_metrics(outcome)
            recalls.append(m["recall"])
            benign_predictions.append(int(np.count_nonzero(~verdicts.malicious)))
        assert all(b <= a + 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert all(b >= a for a, b in zip(benign_predictions, benign_predictions[1:]))


class TestEvalReport:
    def test_report_assembly_and_serialization(self):
        labels = [NMAP, NMAP, CRYPTO, BENIGN, BENIGN]
        verdicts = _table(
            [True, True, True, False, False],
            tanh=[0.9, 0.85, 0.95, 0.0, 0.2],
            frequent=[False, False, False, True, False],
        )
        payload = metrics.build_eval_report(verdicts, labels, thresholds={"th_frequent": 0.1})
        assert payload["schema_version"] == 2
        assert payload["thresholds"] == {"th_frequent": 0.1}
        assert set(payload["scenarios"]) == {NMAP.value, CRYPTO.value}
        assert payload["macro"]["recall"] == 1.0
        assert "runtime" not in str(payload)  # volatile data never serialized

    def test_report_keys_and_present_scenarios(self):
        labels = [CRYPTO, BENIGN, BENIGN]
        verdicts = _table([True, False, True], tanh=[0.9, 0.1, 0.8])
        assert metrics.present_scenarios(labels) == [CRYPTO]
        assert metrics.present_scenarios([CRYPTO, NMAP]) == [NMAP, CRYPTO]
        assert metrics.present_scenarios([BENIGN]) == []
        report = metrics.build_eval_report(verdicts, labels, thresholds={})
        assert set(report) == {"schema_version", "scenarios", "macro", "thresholds"}
        assert list(report["scenarios"]) == [CRYPTO.value]
        entry = report["scenarios"][CRYPTO.value]
        assert entry == {**metrics.scenario_metrics(metrics.confusion(verdicts, labels, CRYPTO)), "auprc": 1.0}
        assert set(entry) == {"tp", "fp", "tn", "fn", "fpr", "precision", "recall", "f1", "auprc"}
        assert report["macro"] == {key: entry[key] for key in ("fpr", "precision", "recall", "f1", "auprc")}

    def test_verdict_scores_convention(self):
        verdicts = _table([False, True], tanh=[0.0, 0.8], frequent=[True, False])
        scores = metrics.verdict_scores(verdicts)
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(0.8)


def while_loop_average_precision(scores, positives):
    """The sequential tie-grouped sweep average_precision replaced."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    total_pos = int(positives.sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positives[order]
    ap = 0.0
    previous_recall = 0.0
    tp = 0
    n = scores.shape[0]
    i = 0
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(sorted_pos[i:j].sum())
        precision = tp / j
        recall = tp / total_pos
        ap += (recall - previous_recall) * precision
        previous_recall = recall
        i = j
    return ap


def while_loop_pr_curve(scores, labels, scenario):
    """The sequential tie-grouped sweep pr_curve replaced."""
    scores = np.asarray(scores, dtype=float)
    mask = np.array([label is scenario or label is BENIGN for label in labels])
    positives = np.array([label is scenario for label in labels])[mask]
    sel = scores[mask]
    total_pos = int(positives.sum())
    order = np.argsort(-sel, kind="stable")
    points = []
    tp = 0
    i = 0
    n = sel.shape[0]
    while i < n:
        threshold = sel[order[i]]
        j = i
        while j < n and sel[order[j]] == threshold:
            tp += int(positives[order[j]])
            j += 1
        points.append((float(threshold), tp / j, tp / total_pos))
        i = j
    return points


def _oracle_cases():
    """Quantized scores (many ties), +-0.0 ties, a single group, and
    unquantized scores, each with labels of all three classes."""
    rng = np.random.default_rng(2006)
    cases = []
    for trial in range(60):
        n = int(rng.integers(1, 300))
        levels = int(rng.integers(1, 12))
        scores = rng.integers(0, levels, size=n) / max(levels - 1, 1)
        if trial % 3 == 1:
            scores = np.where(rng.random(n) < 0.5, -scores, scores)  # 0.0 and -0.0 tie
        if trial % 3 == 2:
            scores = rng.random(n)
        labels = list(rng.choice([NMAP, CRYPTO, BENIGN], size=n))
        labels[int(rng.integers(n))] = NMAP
        cases.append((scores, labels))
    cases.append((np.zeros(7), [BENIGN, NMAP, BENIGN, NMAP, CRYPTO, BENIGN, BENIGN]))
    cases.append((np.array([-0.0, 0.0, -0.0, 0.0]), [NMAP, BENIGN, NMAP, BENIGN]))
    cases.append((np.array([0.0, -0.0, 0.5, 0.5]), [BENIGN, NMAP, NMAP, BENIGN]))
    return cases


class TestSweepOracle:
    """The vectorized sweep equals the two while-loop sweeps it replaced
    exactly: same floats, same threshold signs."""

    def test_average_precision_bit_identical(self):
        for case, (scores, labels) in enumerate(_oracle_cases()):
            positives = np.array([label is NMAP for label in labels])
            got = metrics.average_precision(scores, positives)
            assert type(got) is float
            assert got == while_loop_average_precision(scores, positives), case
            mask = np.array([label is not CRYPTO for label in labels])
            want = while_loop_average_precision(scores[mask], positives[mask])
            assert metrics.auprc(scores, labels, NMAP) == want, case

    def test_pr_curve_repr_identical(self):
        for case, (scores, labels) in enumerate(_oracle_cases()):
            got = metrics.pr_curve(scores, labels, NMAP)
            assert repr(got) == repr(while_loop_pr_curve(scores, labels, NMAP)), case

    def test_single_group(self):
        points = metrics.pr_curve(np.full(4, 0.3), [NMAP, BENIGN, BENIGN, BENIGN], NMAP)
        assert points == [(0.3, 0.25, 1.0)]
        assert metrics.average_precision(np.full(4, 0.3), np.array([1, 0, 0, 0], bool)) == 0.25

    def test_zero_sign_of_first_tied_score_is_kept(self):
        points = metrics.pr_curve(np.array([-0.0, 0.0]), [NMAP, BENIGN], NMAP)
        assert repr(points) == "[(-0.0, 0.5, 1.0)]"

    def test_nan_scores_are_data_errors(self):
        scores = np.array([0.2, np.nan, 0.4])
        with pytest.raises(DataError, match="NaN"):
            metrics.pr_curve(scores, [NMAP, BENIGN, BENIGN], NMAP)
        with pytest.raises(DataError, match="NaN"):
            metrics.auprc(scores, [NMAP, BENIGN, BENIGN], NMAP)
