"""The benchmark's workloads: inputs built from a seed, one timed operation,
and a check of that operation's output.

Each workload class derives its inputs, and the expected outputs the
checks compare against, from the seed in ``inputs(seed)`` (not timed).
``__init__(inputs, workdir, tracer)`` is the timed set-up and does only
the program's own set-up work (only ``experiment`` writes to
*workdir*); ``run_once()`` performs one operation and returns an
:class:`OpResult`.  Only the region between ``timer.start()`` and
``timer.stop()`` is timed; output checks run outside it.

======================  =====================================================
workload                set-up
======================  =====================================================
``experiment``          start-up of the command-line program in a fresh
                        interpreter (``python -m repro.cli --help``)
``stream_max``,         ``calibrate_stream_monitor`` on the clean trace
``stream_paced``
``table1``              training the CGAN
======================  =====================================================

======================  =====================================================
workload                one operation
======================  =====================================================
``experiment``          ``run_experiment`` record → graph → train → analyze
                        → report into a fresh run directory (closed loop)
``stream_max``          replay of an attacked printer trace through
                        ``StreamSession`` as fast as it is consumed,
                        32 windows per scoring batch (closed loop)
``stream_paced``        the same trace paced at three times real time by a
                        separate source thread, one window per batch
                        (open loop); each window's latency runs from the
                        time its last chunk was due to the decision on it
``table1``              engine Table I sweep: Algorithm 3 over every
                        feature for h in {0.2, 0.4, 0.6, 0.8, 1.0} on a
                        trained CGAN, with a fresh sample cache
======================  =====================================================
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro
from repro.flows.io import load_dataset
from repro.gan import ConditionalGAN
from repro.manufacturing import record_case_study_dataset
from repro.manufacturing.printer import Printer3D
from repro.manufacturing.programs import calibration_suite
from repro.pipeline.experiment import ExperimentConfig, run_experiment
from repro.runtime.analysis import ConditionSampleCache
from repro.security import security_analysis_h_sweep
from repro.streaming import (
    ClaimTrack,
    StreamSession,
    calibrate_stream_monitor,
    frame_signal,
    inject_claim_attack,
    offline_stream_scores,
    synthetic_printer_stream,
)
from repro.utils.rng import as_rng

#: Stream analysis window and hop, in samples (50 ms / 25 ms at 12 kHz).
WINDOW = 600
HOP = 300


class SetupError(RuntimeError):
    """The seed produced inputs the workload cannot run on."""


@dataclass
class OpResult:
    """What one operation did and whether its output was right."""

    wall_s: float
    #: Latency samples: one per operation, or one per window when paced.
    latencies_s: list
    attempted: int
    failed: int
    windows: int = 0
    alarms: int = 0
    #: How late the paced source delivered each chunk, in seconds.
    source_late_s: list = field(default_factory=list)
    #: Which of the workload's inputs the operation ran on.
    case: int = 0


class _Timer:
    """Wall time of one region, with span recording on."""

    def __init__(self, tracer):
        self.tracer = tracer

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.start()
        self._start = time.perf_counter()

    def stop(self) -> float:
        wall = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.stop()
        return wall


def _largest_prime_factor(n: int) -> int:
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n)


@dataclass
class _Cases:
    """The experiment's case studies and the recordings each must produce."""

    configs: list
    expected: list


class Experiment:
    """The whole case-study run a user starts with ``repro experiment``.

    The default run (30 moves per axis, 2000 iterations) takes minutes,
    so each case study here has ``MOVES`` moves per axis and trains for
    ``ITERATIONS`` iterations, with checkpoints at the default's cadence
    relative to its length (four per run).

    The random calibration programs make recordings of very different
    lengths, and FFT cost depends on how a length factors, so a bare seed
    would change the work by 2x.  The seed instead picks the first
    ``CASES`` case studies, among seeds derived from it, whose three
    recordings total ``TOTAL_SAMPLES`` and whose lengths each have a
    prime factor above ``MIN_PRIME``.  The default run's recordings have
    such factors (24,841 and 99,041), which put the simulator's
    full-length FFTs on pocketfft's slow path, whose cost varies little
    between large primes.  Only the motion plan is needed to know the
    lengths, which takes under a millisecond per candidate.  Operations
    take turns between the case studies, and the latency is the mean of
    each case's median, so what remains of the difference between them
    is averaged.

    The set-up is the command-line program's start-up in a fresh
    interpreter, which every ``repro experiment`` pays; the run itself
    has no set-up of its own.
    """

    MOVES = 8
    ITERATIONS = 300
    CHECKPOINT_EVERY = 75
    CASES = 5
    TOTAL_SAMPLES = (370_000, 410_000)
    MIN_PRIME = 10_000
    CANDIDATES = 100_000

    def __init__(self, cases: _Cases, workdir: Path, tracer):
        src = Path(repro.__file__).resolve().parent.parent
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "--help"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=60,
        )
        self.configs = cases.configs
        self.expected = cases.expected
        self.first_summaries = [None] * len(self.configs)
        self.workdir = workdir
        self.timer = _Timer(tracer)
        self.runs = 0

    @classmethod
    def _planned_lengths(cls, case_seed: int) -> list:
        """Audio samples each calibration program will record, drawing
        the programs exactly as ``record_case_study_dataset`` does."""
        rng = as_rng(case_seed)
        printer = Printer3D(sample_rate=ExperimentConfig.sample_rate, seed=rng)
        programs = calibration_suite(cls.MOVES, seed=rng)
        synth = printer.synthesizer
        return [
            sum(synth.segment_samples(seg) for seg in printer.plan(program))
            for program in programs
        ]

    @classmethod
    def _standard_size(cls, case_seed: int) -> bool:
        lengths = cls._planned_lengths(case_seed)
        low, high = cls.TOTAL_SAMPLES
        return low <= sum(lengths) <= high and all(
            _largest_prime_factor(n) > cls.MIN_PRIME for n in lengths
        )

    @classmethod
    def inputs(cls, seed: int) -> _Cases:
        """The case studies, and the recording each must reproduce."""
        candidates = range(seed * cls.CANDIDATES, (seed + 1) * cls.CANDIDATES)
        chosen = list(itertools.islice(filter(cls._standard_size, candidates), cls.CASES))
        if len(chosen) < cls.CASES:
            raise SetupError(f"seed {seed}: too few case studies of the standard size")
        configs = [
            ExperimentConfig(
                name="perfbench",
                seed=case_seed,
                n_moves_per_axis=cls.MOVES,
                iterations=cls.ITERATIONS,
                checkpoint_every=cls.CHECKPOINT_EVERY,
            )
            for case_seed in chosen
        ]
        expected = []
        for config in configs:
            dataset, _extractor, _encoder, runs = record_case_study_dataset(
                n_moves_per_axis=config.n_moves_per_axis,
                sample_rate=config.sample_rate,
                n_bins=config.n_bins,
                seed=config.seed,
            )
            recorded = [len(run.audio) for run in runs]
            planned = cls._planned_lengths(config.seed)
            if recorded != planned:
                raise SetupError(
                    f"case {config.seed}: recorded {recorded} samples, planned {planned}"
                )
            expected.append(dataset)
        return _Cases(configs, expected)

    def run_once(self) -> OpResult:
        case = self.runs % len(self.configs)
        out = self.workdir / f"experiment-{self.runs}"
        self.runs += 1
        self.timer.start()
        result = run_experiment(self.configs[case], out, resume=False)
        wall = self.timer.stop()
        ok = self._check(case, result, out)
        shutil.rmtree(out)
        return OpResult(wall, [wall], attempted=1, failed=int(not ok), case=case)

    def _check(self, case: int, result, out: Path) -> bool:
        recorded = load_dataset(out / "dataset.npz")
        expected = self.expected[case]
        summary = result.summary
        if self.first_summaries[case] is None:
            self.first_summaries[case] = summary
        return (
            np.array_equal(recorded.features, expected.features)
            and np.array_equal(recorded.conditions, expected.conditions)
            and summary == self.first_summaries[case]
            and summary["n_samples"] == len(expected)
            and np.isfinite([summary["final_d_loss"], summary["final_g_loss"]]).all()
        )


def _program_order_excerpt(scenario, run: int, piece: int):
    """The first *run* samples of each condition's audio, conditions in
    program order, with claims in pieces of *piece* samples so that one
    forged claim covers one piece.  One program per axis records each
    condition's spans back to back, so each run is contiguous audio.
    None if a condition has less than *run* samples."""
    claims = scenario.claims
    ends = np.append(claims.boundaries[1:], len(scenario.samples))
    order = list(dict.fromkeys(claims.span_conditions.tolist()))
    runs = []
    for k in order:
        audio = np.concatenate(
            [
                scenario.samples[b:e]
                for b, e, c in zip(claims.boundaries, ends, claims.span_conditions)
                if c == k
            ]
        )
        if len(audio) < run:
            return None
        runs.append(audio[:run])
    pieces_per_run = run // piece
    return replace(
        scenario,
        samples=np.concatenate(runs),
        claims=ClaimTrack(
            np.arange(len(order) * pieces_per_run) * piece,
            np.repeat(order, pieces_per_run),
            claims.conditions,
        ),
    )


@dataclass
class _StreamInputs:
    """The clean and attacked trace, and what the monitor must output."""

    seed: int
    clean: object
    attacked: object
    expected_scores: np.ndarray
    expected_alarms: list


class _Stream:
    """Shared inputs of the stream workloads: an attacked printer trace,
    the offline oracle's scores and alarms for it, and (the timed
    set-up) a monitor calibrated on the clean trace.

    Every seed streams ``RUN`` samples of each of the three conditions in
    program order (36,000 samples, 119 windows), so the claimed condition
    changes at the same two windows for every seed, as it does between
    the axis programs of a real trace.  An axis program can record less
    than that, so the seed picks the first recording, among
    ``RECORDINGS`` derived from it, that has enough.  Claims come in pieces of
    ``PIECE`` samples and two pieces are forged; the seed picks the first
    forgery, among ``ATTACK_CANDIDATES`` derived from it, that the
    offline detector catches and that gives the scorer ``GROUPS``
    (batch, claimed condition) groups at max rate, so every run raises
    alarms and makes the same number of Parzen calls.
    """

    MOVES = 6
    RECORDINGS = 10
    RUN = 12_000
    PIECE = 2_400
    ATTACK_CANDIDATES = 50
    #: Windows per scoring batch at max rate.
    MAX_RATE_BATCH = 32
    #: Four batches; the changes between axes add two groups, and each
    #: forged piece one more when it claims a condition its batch lacks.
    GROUPS = 8

    @staticmethod
    def _calibrate(clean, seed: int):
        return calibrate_stream_monitor(
            clean.samples,
            clean.sample_rate,
            clean.claims,
            window_size=WINDOW,
            hop_size=HOP,
            g_size=64,
            root_entropy=seed,
        )

    @classmethod
    def _groups(cls, scenario) -> int:
        _windows, starts = frame_signal(scenario.samples, WINDOW, HOP)
        claims = scenario.claims.window_claims(starts)
        batch = cls.MAX_RATE_BATCH
        return sum(len(np.unique(claims[i : i + batch])) for i in range(0, len(claims), batch))

    @classmethod
    def inputs(cls, seed: int) -> _StreamInputs:
        for recording in range(seed * cls.RECORDINGS, (seed + 1) * cls.RECORDINGS):
            scenario = synthetic_printer_stream(n_moves_per_axis=cls.MOVES, seed=recording)
            clean = _program_order_excerpt(scenario, cls.RUN, cls.PIECE)
            if clean is not None:
                break
        else:
            raise SetupError(f"seed {seed}: no recording has {cls.RUN} samples of every axis")
        oracle = cls._calibrate(clean, seed)
        for attack_seed in range(seed + 1, seed + 1 + cls.ATTACK_CANDIDATES):
            attacked = inject_claim_attack(clean, n_spans=2, seed=attack_seed)
            if cls._groups(attacked) != cls.GROUPS:
                continue
            scores, _starts, alarms = offline_stream_scores(
                attacked.samples,
                attacked.claims,
                oracle,
                window_size=WINDOW,
                hop_size=HOP,
            )
            if alarms:
                return _StreamInputs(seed, clean, attacked, np.asarray(scores), list(alarms))
        raise SetupError(f"seed {seed}: no forgery of the standard size raises an alarm")

    def __init__(self, inputs: _StreamInputs, workdir: Path, tracer):
        self.calibration = self._calibrate(inputs.clean, inputs.seed)
        self.attacked = inputs.attacked
        self.expected_scores = inputs.expected_scores
        self.expected_alarms = inputs.expected_alarms
        self.timer = _Timer(tracer)

    def _session(self, source, detector, batch_windows: int) -> StreamSession:
        return StreamSession(
            source,
            extractor=self.calibration.extractor,
            scorer=self.calibration.scorer,
            claims=self.attacked.claims,
            detector=detector,
            window_size=WINDOW,
            hop_size=HOP,
            sample_rate=self.attacked.sample_rate,
            batch_windows=batch_windows,
        )

    def _failed_windows(self, metrics) -> int:
        """Windows not scored exactly as the offline oracle scores them."""
        expected = self.expected_scores
        got = np.asarray(metrics.scores)
        if (
            not metrics.ok
            or metrics.windows_dropped
            or got.shape != expected.shape
            or metrics.alarms != self.expected_alarms
        ):
            return len(expected)
        return int(np.count_nonzero(got != expected))


class StreamMax(_Stream):
    """Max-rate replay: how fast the monitor gets through recorded audio."""

    BATCH = _Stream.MAX_RATE_BATCH
    CHUNK = 1024

    def run_once(self) -> OpResult:
        session = self._session(
            self.attacked.replay(chunk_size=self.CHUNK, rate="max"),
            self.calibration.make_detector(),
            self.BATCH,
        )
        self.timer.start()
        metrics = session.run()
        wall = self.timer.stop()
        n = len(self.expected_scores)
        return OpResult(
            wall,
            [wall],
            attempted=n,
            failed=self._failed_windows(metrics),
            windows=metrics.windows_scored,
            alarms=len(metrics.alarms),
        )


class _PacedSource:
    """Yields one hop of samples at each instant a live microphone would
    deliver it, whether or not the monitor has kept up (open loop)."""

    def __init__(self, samples, samples_per_second: float, chunk: int):
        self.samples = samples
        self.seconds_per_sample = 1.0 / samples_per_second
        self.chunk = chunk
        self.t0 = None
        self.late_s: list = []

    def due(self, chunk_index: int) -> float:
        end = min((chunk_index + 1) * self.chunk, len(self.samples))
        return self.t0 + end * self.seconds_per_sample

    def __iter__(self):
        self.t0 = time.perf_counter()
        for i, start in enumerate(range(0, len(self.samples), self.chunk)):
            due = self.due(i)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.late_s.append(time.perf_counter() - due)
            yield self.samples[start : start + self.chunk]


class _StampedDetector:
    """Decision layer proxy that stamps when each window was decided."""

    def __init__(self, inner):
        self.inner = inner
        self.decided_at: list = []

    def update(self, score) -> bool:
        alarm = self.inner.update(score)
        self.decided_at.append(time.perf_counter())
        return alarm

    def __getattr__(self, name):
        return getattr(self.inner, name)


class StreamPaced(_Stream):
    """Paced replay: how long after its audio arrives a window is decided."""

    BATCH = 1
    #: Audio arrives at three times real time, which keeps the monitor
    #: about 60% busy.  Nearer idle, the host's wake-up jitter rather
    #: than the monitor sets the latency.
    SPEEDUP = 3.0

    def run_once(self) -> OpResult:
        source = _PacedSource(
            self.attacked.samples, self.SPEEDUP * self.attacked.sample_rate, HOP
        )
        detector = _StampedDetector(self.calibration.make_detector())
        session = self._session(source, detector, self.BATCH)
        self.timer.start()
        metrics = session.run()
        wall = self.timer.stop()
        n = len(self.expected_scores)
        failed = self._failed_windows(metrics)
        latencies = []
        if len(detector.decided_at) == n:
            # Window k ends at sample k*HOP + WINDOW - 1, inside chunk k + 1.
            last_chunk = (np.arange(n) * HOP + WINDOW - 1) // HOP
            latencies = [
                decided - source.due(int(c))
                for decided, c in zip(detector.decided_at, last_chunk)
            ]
        else:
            failed = n
        return OpResult(
            wall,
            latencies,
            attempted=n,
            failed=failed,
            windows=metrics.windows_scored,
            alarms=len(metrics.alarms),
            source_late_s=source.late_s,
        )


class TableOne:
    """The Table I sweep on a CGAN trained during set-up; the dataset is
    recorded with the inputs."""

    MOVES = 10
    ITERATIONS = 300
    H_VALUES = (0.2, 0.4, 0.6, 0.8, 1.0)
    G_SIZE = 200
    PAIR = "table1"

    @classmethod
    def inputs(cls, seed: int) -> tuple:
        """The seed and the recorded dataset's train/test split."""
        dataset = record_case_study_dataset(n_moves_per_axis=cls.MOVES, seed=seed)[0]
        return (seed, *dataset.split(0.25, seed=seed))

    def __init__(self, inputs: tuple, workdir: Path, tracer):
        self.seed, train, self.test = inputs
        self.cgan = ConditionalGAN(train.feature_dim, train.condition_dim, seed=self.seed)
        self.cgan.train(train, iterations=self.ITERATIONS, batch_size=32)
        self.timer = _Timer(tracer)
        self.first = None

    def run_once(self) -> OpResult:
        cache = ConditionSampleCache(max_entries=64)
        self.timer.start()
        sweep = security_analysis_h_sweep(
            self.cgan,
            self.test,
            h_values=self.H_VALUES,
            g_size=self.G_SIZE,
            root_entropy=self.seed,
            pair=self.PAIR,
            cache=cache,
        )
        wall = self.timer.stop()
        ok = self._check(sweep, cache)
        return OpResult(wall, [wall], attempted=1, failed=int(not ok))

    def _check(self, sweep, cache) -> bool:
        """First sweep against a direct Gaussian-kernel evaluation on the
        generator draws it used; later sweeps bitwise against the first."""
        table = {
            h: (res.avg_correct.copy(), res.avg_incorrect.copy())
            for h, res in sweep.items()
        }
        if self.first is not None:
            return all(
                np.array_equal(table[h][0], self.first[h][0])
                and np.array_equal(table[h][1], self.first[h][1])
                for h in self.H_VALUES
            )
        self.first = table
        x = self.test.features
        for h in self.H_VALUES:
            res = sweep[h]
            for ci, cond in enumerate(res.conditions):
                drawn = cache.get(cache.key(self.PAIR, cond, self.G_SIZE, self.seed))
                if drawn is None:
                    return False
                correct = self.test.mask_for_condition(cond)
                # Scaled likelihood h * p(x): mean Gaussian kernel / sqrt(2 pi).
                z = (x[:, None, :] - drawn[None, :, :]) / h
                likes = np.exp(-0.5 * z * z).mean(axis=1) / np.sqrt(2.0 * np.pi)
                cor = likes[correct].mean(axis=0)
                inc = likes[~correct].mean(axis=0) if (~correct).any() else 0.0
                if not (
                    np.allclose(res.avg_correct[ci], cor, rtol=1e-9, atol=1e-12)
                    and np.allclose(res.avg_incorrect[ci], inc, rtol=1e-9, atol=1e-12)
                ):
                    return False
        return True


WORKLOADS = {
    "experiment": Experiment,
    "stream_max": StreamMax,
    "stream_paced": StreamPaced,
    "table1": TableOne,
}
