"""One benchmark session: set up, fit, serve under reloads, check, measure.

Every workload runs the same session, the two end-to-end paths of the
project, on three datasets drawn from the seed (one set-up each):

1. **fit** — rounds of DBSCAN, LAF-DBSCAN and LAF-DBSCAN++ back to
   back on a test split, the rounds taking the datasets in turn, each
   fit timed on its own;
2. **serve** — the first dataset's first timed LAF-DBSCAN fit is saved
   as a model, loaded memory-mapped into an in-process
   :class:`repro.serving.ModelServer` and queried: first an open loop at
   a fixed rate while the same artifact is reloaded every 0.75 s, then a
   closed loop of 64 callers.

Workloads differ in the data and in where the range queries run
(in-process, or on 4 shards over a local 2-worker remote pool).
Outputs are checked after the timed part; every wrong output is a
failed operation.
"""

from __future__ import annotations

import asyncio
import contextlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import dbscan_errors, dbscan_reference
from tracing import Tracer, install

METHODS = ("dbscan", "laf", "lafpp")

RATE_PER_S = 30.0  # paced-phase request rate
RELOAD_EVERY_S = 0.75
SATURATION_CALLERS = 64
MAX_BATCH_ROWS = 256
MAX_WAIT_MS = 2.0
ROWS_PER_REQUEST = (1, 8)  # inclusive
POOL_ROWS = 2048  # held-out training rows the requests draw from
N_SHARDS = 4
POOL_WORKERS = 2
WARMUP_ROWS = 1024
PHASE_GUARD_S = 120.0  # a serve phase that runs this long has hung

# Shares of --seconds given to the fit phase, the paced phase and the
# saturation phase.
FIT_SHARE, PACED_SHARE = 0.5, 0.45
# Datasets per run, each with its own set-up. The seed draws all of them;
# a time is the mean over the datasets of its median on each, so one
# draw's structure moves a run's figures less.
N_DATASETS = 3
MIN_ROUNDS = N_DATASETS  # the fit phase fits every dataset at least once


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    eps: float
    tau: int
    sharded: bool


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("laf-fit-ms768", "MS-150k", 0.15, eps=0.55, tau=5, sharded=False),
        Workload("sharded-glove200", "Glove-150k", 0.25, eps=0.55, tau=5, sharded=True),
    )
}


@dataclass(frozen=True)
class Size:
    scale_factor: float  # multiplies the workload's dataset scale
    epochs: int
    train_queries: int
    hidden_layers: tuple[int, ...] = (64, 64, 32)


SIZES = {
    # The RMI is trained as the paper benchmarks train it.
    "full": Size(1.0, 40, 500),
    "smoke": Size(0.05, 3, 50),
}


@dataclass
class Outcome:
    """What one session measured, and what it got wrong."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup_runs_s: list[float] = field(default_factory=list)
    prepare_s: float = 0.0
    # method -> one list of fit times (or ARIs) per dataset
    fit_s: dict[str, list[list[float]]] = field(
        default_factory=lambda: {m: [[] for _ in range(N_DATASETS)] for m in METHODS}
    )
    ari: dict[str, list[list[float]]] = field(
        default_factory=lambda: {m: [[] for _ in range(N_DATASETS)] for m in ("laf", "lafpp")}
    )
    latencies_s: list[float] = field(default_factory=list)
    generator_lags_s: list[float] = field(default_factory=list)
    reload_s: list[float] = field(default_factory=list)
    saturated_rows: int = 0
    saturated_s: float = 0.0
    paced_server_stats: dict = field(default_factory=dict)
    unsharded_fit_s: list[float] = field(default_factory=list)  # per dataset
    artifact_bytes: int = 0
    traced_fit_s: dict[str, float] = field(default_factory=dict)
    traced_fit_stats: dict[str, dict] = field(default_factory=dict)
    tracers: dict[str, Tracer] = field(default_factory=dict)

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(message)


def _maybe_traced(outcome: Outcome, phase: str, trace: bool):
    """Install a fresh tracer for ``phase`` when tracing, else do nothing."""
    if not trace:
        return contextlib.nullcontext()
    tracer = outcome.tracers[phase] = Tracer()
    return install(tracer)


@dataclass
class Prepared:
    """One set-up: a dataset drawn from the seed and what is built on it."""

    X: np.ndarray  # the test split, which is clustered
    alpha: float
    estimator: object
    request_pool: np.ndarray  # held-out training rows the requests draw from
    execution: object
    reference: object = None  # in-process: the independent DBSCAN reference
    unsharded: object = None  # sharded: the in-process DBSCAN fit
    pool: object = None
    first: dict = field(default_factory=dict)  # method -> its first timed fit


class Session:
    """Owns the datasets, estimators, pools, server and artifact of one run."""

    def __init__(self, workload: Workload, size: Size, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.size = size
        self.seed = int(seed)
        self.workdir = workdir
        self.sets: list[Prepared] = []
        self.server = None
        self.outcome = Outcome()

    # ------------------------------------------------------------------
    # set-up

    def setup(self, trace: bool) -> None:
        """One set-up per dataset, each timed on its own; the last is traced."""
        for i in range(N_DATASETS):
            start = time.perf_counter()
            self._setup(i, trace and i == N_DATASETS - 1)
            self.outcome.setup_runs_s.append(time.perf_counter() - start)

    def _setup(self, index: int, trace: bool) -> None:
        from repro import ExecutionConfig, ShardingConfig
        from repro.data import load_dataset
        from repro.data.datasets import DATASET_SPECS
        from repro.estimators import RMICardinalityEstimator
        from repro.remote.pool import WorkerPool

        w, size, out = self.workload, self.size, self.outcome
        seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
        with _maybe_traced(out, "setup", trace):
            ds = load_dataset(w.dataset, scale=w.scale * size.scale_factor, seed=seed)
            X_train, X = ds.split()
            estimator = RMICardinalityEstimator(
                hidden_layers=size.hidden_layers,
                epochs=size.epochs,
                n_train_queries=size.train_queries,
                seed=seed,
            ).fit(X_train)
            rng = np.random.default_rng([seed, 1])
            rows = rng.choice(X_train.shape[0], min(POOL_ROWS, X_train.shape[0]), replace=False)
            d = Prepared(
                X=X,
                alpha=DATASET_SPECS[w.dataset].alpha,
                estimator=estimator,
                request_pool=X_train[rows],
                execution=ExecutionConfig(),
            )
            self.sets.append(d)
            if not w.sharded:
                d.reference = dbscan_reference(X, w.eps, w.tau)
            else:
                # Sharded refits are checked against the in-process fit.
                t0 = time.perf_counter()
                d.unsharded = self._make("dbscan", d).fit(X)
                out.unsharded_fit_s.append(time.perf_counter() - t0)
                d.pool = WorkerPool.spawn_local(POOL_WORKERS)
                d.execution = ExecutionConfig(
                    sharding=ShardingConfig(n_shards=N_SHARDS, executor=d.pool.executor_spec())
                )
            # One untimed warm-up fit per method, on the first rows and
            # in-process: it runs every code path once without the cost
            # of a full fit. On the sharded workload DBSCAN's warm-up is
            # the cold fit of the full data, which builds the workers' shards.
            for method in METHODS:
                if w.sharded and method == "dbscan":
                    self._fit(method, d)
                else:
                    self._make(method, d, ExecutionConfig()).fit(X[:WARMUP_ROWS])

    def _make(self, method: str, d: Prepared, execution=None):
        from repro import DBSCAN, LAFDBSCAN, LAFDBSCANPlusPlus

        w = self.workload
        execution = execution or d.execution
        if method == "dbscan":
            return DBSCAN(eps=w.eps, tau=w.tau, execution=execution)
        if method == "laf":
            return LAFDBSCAN(
                eps=w.eps,
                tau=w.tau,
                estimator=d.estimator,
                alpha=d.alpha,
                execution=execution,
            )
        return LAFDBSCANPlusPlus(
            eps=w.eps,
            tau=w.tau,
            estimator=d.estimator,
            execution=execution,
        )

    def _fit(self, method: str, d: Prepared):
        clusterer = self._make(method, d)
        start = time.perf_counter()
        result = clusterer.fit(d.X)
        return time.perf_counter() - start, result

    def prepare_server(self, trace: bool) -> None:
        """Save the first dataset's first timed LAF-DBSCAN fit and serve it.

        Counted into ``setup_s``: it is preparation, not measured work.
        """
        start = time.perf_counter()
        with _maybe_traced(self.outcome, "prepare", trace):
            self._prepare_server()
        self.outcome.prepare_s = time.perf_counter() - start

    def _prepare_server(self) -> None:
        from repro import ClusterModel, ExecutionConfig
        from repro.serving import ModelServer

        d = self.sets[0]
        laf = d.first["laf"]
        model = ClusterModel(
            points=d.X,
            labels=laf.labels,
            core_mask=laf.core_mask,
            algo="laf-dbscan",
            params=self._make("laf", d).model_params(),
            execution=ExecutionConfig(),
            estimator=d.estimator,
        )
        self.artifact = self.workdir / "model"
        model.save(self.artifact)
        self.outcome.artifact_bytes = sum(
            p.stat().st_size for p in self.artifact.rglob("*") if p.is_file()
        )
        self.server = ModelServer(max_batch_rows=MAX_BATCH_ROWS, max_wait_ms=MAX_WAIT_MS)
        self.server.add_model("m", self.artifact)

    # ------------------------------------------------------------------
    # checks

    def _check_round(self, index: int, results: dict) -> None:
        """Check one round of fits; each wrong fit is one failed operation."""
        from repro.metrics import adjusted_rand_index

        out, d = self.outcome, self.sets[index]
        for method, result in results.items():
            wrong = []
            if method == "dbscan" and d.reference is not None:
                wrong += dbscan_errors(result.labels, result.core_mask, d.reference)
            first = d.first.setdefault(method, result)
            if self.workload.sharded:
                # Warm refits: bit-identical to the unsharded fit (DBSCAN)
                # or to the first timed refit, with no shard built or moved.
                target = d.unsharded if method == "dbscan" else first
                if not (
                    np.array_equal(result.labels, target.labels)
                    and np.array_equal(result.core_mask, target.core_mask)
                ):
                    wrong.append("sharded refit is not bit-identical to its reference fit")
                builds = result.stats.get("shard_inner_builds")
                rebalances = result.stats.get("shard_rebalances")
                if builds != 0 or rebalances != 0:
                    wrong.append(f"warm refit built {builds} shards, rebalanced {rebalances}")
            if wrong:
                out.fail(f"{method} on dataset {index}: " + "; ".join(wrong))
        for method in ("laf", "lafpp"):
            out.ari[method][index].append(
                adjusted_rand_index(results["dbscan"].labels, results[method].labels)
            )

    # ------------------------------------------------------------------
    # timed phases

    def fit_phase(self, budget_s: float) -> None:
        """Rounds of the three fits until the budget is spent (at least MIN_ROUNDS).

        Round ``r`` runs on dataset ``r % N_DATASETS``.
        """
        out = self.outcome
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < budget_s:
            index = rounds % N_DATASETS
            results = {}
            for method in METHODS:
                elapsed, results[method] = self._fit(method, self.sets[index])
                out.fit_s[method][index].append(elapsed)
                out.attempted += 1
            self._check_round(index, results)
            rounds += 1

    def traced_round(self) -> None:
        """One more round on the first dataset, every layer traced."""
        out = self.outcome
        with _maybe_traced(out, "fit", True):
            for method in METHODS:
                elapsed, result = self._fit(method, self.sets[0])
                out.traced_fit_s[method] = elapsed
                out.traced_fit_stats[method] = dict(
                    result.stats, core_points=int(result.core_mask.sum())
                )

    def serve_phase(self, paced_s: float, saturation_s: float, trace: bool) -> None:
        with _maybe_traced(self.outcome, "serve", trace):
            asyncio.run(self._serve(paced_s, saturation_s))
        self._check_served()

    async def _serve(self, paced_s: float, saturation_s: float) -> None:
        try:
            await asyncio.wait_for(self._load(paced_s, saturation_s), PHASE_GUARD_S)
        except asyncio.TimeoutError:
            self.outcome.fail(f"serve phase did not finish within {PHASE_GUARD_S} s")
        finally:
            await self.server.aclose()

    async def _load(self, paced_s: float, saturation_s: float) -> None:
        from repro.exceptions import ReproError

        out, server = self.outcome, self.server
        pool = self.sets[0].request_pool
        loop = asyncio.get_running_loop()
        rng = np.random.default_rng([self.seed, 2])
        lo, hi = ROWS_PER_REQUEST
        self.served: list[tuple[np.ndarray, np.ndarray]] = []

        async def request(rows: np.ndarray, X: np.ndarray, due: float | None) -> bool:
            out.attempted += 1
            try:
                labels = await server.submit("m", X)
            except ReproError as exc:
                out.fail(f"request failed: {type(exc).__name__}: {exc}")
                return False
            if due is not None:
                out.latencies_s.append(loop.time() - due)
            self.served.append((rows, labels))
            return True

        n_requests = max(1, int(round(paced_s * RATE_PER_S)))
        streams = [rng.integers(0, pool.shape[0], size=k) for k in rng.integers(lo, hi + 1, n_requests)]
        payloads = [pool[rows] for rows in streams]  # built before the clock starts
        t0 = loop.time() + 0.05

        async def reloader() -> None:
            due = t0 + min(RELOAD_EVERY_S, paced_s) / 2  # at least one reload
            while due < t0 + paced_s:
                await asyncio.sleep(max(0.0, due - loop.time()))
                out.attempted += 1
                start = time.perf_counter()
                try:
                    await server.reload("m", self.artifact)
                except ReproError as exc:
                    out.fail(f"reload failed: {type(exc).__name__}: {exc}")
                else:
                    out.reload_s.append(time.perf_counter() - start)
                due += RELOAD_EVERY_S

        reloads = loop.create_task(reloader())
        tasks = []
        for i, rows in enumerate(streams):
            due = t0 + i / RATE_PER_S
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            out.generator_lags_s.append(max(0.0, loop.time() - due))
            tasks.append(loop.create_task(request(rows, payloads[i], due)))
        await asyncio.gather(*tasks)
        await reloads
        out.paced_server_stats = server.stats()["m"]

        start = loop.time()

        async def caller(k: int) -> None:
            caller_rng = np.random.default_rng([self.seed, 3, k])
            while loop.time() < start + saturation_s:
                rows = caller_rng.integers(0, pool.shape[0], size=caller_rng.integers(lo, hi + 1))
                if await request(rows, pool[rows], None):
                    out.saturated_rows += rows.size

        await asyncio.gather(*(caller(k) for k in range(SATURATION_CALLERS)))
        out.saturated_s = loop.time() - start

    def _check_served(self) -> None:
        """Every served label must equal a sequential predict on the loaded model."""
        from repro import load_model

        with load_model(self.artifact) as model:
            expected = model.predict(self.sets[0].request_pool)
        wrong = sum(not np.array_equal(labels, expected[rows]) for rows, labels in self.served)
        if wrong:
            self.outcome.fail(f"{wrong} served requests returned wrong labels", wrong)

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self.server is not None:
            asyncio.run(self.server.aclose())  # a no-op once the serve phase closed it
            self.server = None
        for d in self.sets:
            if d.pool is not None:
                d.pool.shutdown()
                d.pool = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_session(workload: Workload, size: Size, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """Set up, run the timed phases (and the traced round), check, tear down."""
    workdir.mkdir(parents=True, exist_ok=True)
    session = Session(workload, size, seed, workdir)
    try:
        session.setup(trace)
        session.fit_phase(FIT_SHARE * seconds)
        if trace:
            session.traced_round()
        session.prepare_server(trace)
        paced = PACED_SHARE * seconds
        session.serve_phase(paced, seconds - FIT_SHARE * seconds - paced, trace)
    finally:
        session.close()
    return session.outcome
