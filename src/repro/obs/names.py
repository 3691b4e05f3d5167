"""The canonical metric-family name table.

Every instrumented call site imports its family name from here, and
``tests/smoke/test_server.py`` asserts :data:`REQUIRED_FAMILIES` are all
present in a live ``/v3/metrics`` scrape — so renaming a metric is a
loud, single-file change instead of silent dashboard drift.

Naming follows Prometheus conventions: ``repro_`` prefix, base units in
the name (``_seconds``), ``_total`` suffix on counters. Labels are
listed next to each family; keep cardinality bounded (enums only, never
job ids or paths).
"""

from __future__ import annotations

# -- solver (core/solver.py) -------------------------------------------------
#: Counter{scheme=perf|ppc}: entry-point solves (one kernel run each).
SOLVER_SOLVES = "repro_solver_solves_total"
#: Histogram{scheme}: wall time of one entry-point solve.
SOLVER_SECONDS = "repro_solver_solve_seconds"

# -- service memos (api/service.py) ------------------------------------------
#: Counter{kind=optimize|batch}: requests dispatched through LibraService.
SERVICE_REQUESTS = "repro_service_requests_total"
#: Counter{outcome=hit|miss}: engine memo consultations (miss == compile).
SERVICE_ENGINE_MEMO = "repro_service_engine_compiles_total"

# -- result cache (explore/cache.py) -----------------------------------------
#: Counter{tier=memory|disk, outcome=hit|miss}: ResultCache lookups.
CACHE_LOOKUPS = "repro_cache_lookups_total"
#: Counter: results stored via ResultCache.put.
CACHE_WRITES = "repro_cache_writes_total"
#: Counter: memory-tier LRU evictions.
CACHE_EVICTIONS = "repro_cache_evictions_total"
#: Counter: corrupt/truncated disk entries quarantined (renamed .corrupt).
CACHE_CORRUPT = "repro_cache_corrupt_total"

# -- sweep executor (explore/executor.py) ------------------------------------
#: Counter{status=cached|solved|error}: grid cells resolved.
SWEEP_CELLS = "repro_sweep_cells_total"
#: Counter: sweep chains executed.
SWEEP_CHAINS = "repro_sweep_chains_total"

# -- job manager (serve/manager.py) ------------------------------------------
#: Counter{kind=optimize|batch}: jobs accepted (dedupe hits not counted).
JOBS_SUBMITTED = "repro_jobs_submitted_total"
#: Counter{state=succeeded|failed|cancelled}: jobs reaching a terminal state.
JOBS_COMPLETED = "repro_jobs_completed_total"
#: Gauge: jobs currently running.
JOBS_ACTIVE = "repro_jobs_active"
#: Gauge: jobs queued but not yet running.
JOB_QUEUE_DEPTH = "repro_job_queue_depth"
#: Histogram: submit → running latency.
JOB_QUEUE_SECONDS = "repro_job_queue_seconds"
#: Histogram: running → terminal latency.
JOB_RUN_SECONDS = "repro_job_run_seconds"

# -- durability (serve/store.py, serve/manager.py, explore/executor.py) ------
#: Counter: unfinished jobs re-enqueued by the startup recovery pass.
JOBS_RECOVERED = "repro_jobs_recovered_total"
#: Counter: transient-failure retries (job requeues and chain requeues).
JOB_RETRIES = "repro_job_retries_total"
#: Histogram: JobStore fsync latency (event-log batches and records).
STORE_FSYNC_SECONDS = "repro_store_fsync_seconds"
#: Counter: job directories without an intact record skipped by load().
STORE_ORPHANS = "repro_store_orphans_total"
#: Counter: disk-tier cache hits on entries written by another process.
CACHE_PEER_HITS = "repro_cache_peer_hits_total"

# -- fleet (serve/fleet.py) ---------------------------------------------------
# These four only register on servers started with ``--fleet``, so they
# are deliberately NOT in REQUIRED_FAMILIES (the live-scrape test runs a
# plain single server).
#: Counter{outcome=won|lost}: lease-claim attempts.
FLEET_CLAIMS = "repro_fleet_claims_total"
#: Counter: stale leases taken over from a dead/silent peer.
FLEET_TAKEOVERS = "repro_fleet_takeovers_total"
#: Counter{outcome=ok|lost}: heartbeat lease renewals.
FLEET_RENEWALS = "repro_fleet_lease_renewals_total"
#: Gauge: leases this server currently holds.
FLEET_LEASES_HELD = "repro_fleet_leases_held"

# -- analysis (repro/analysis, api/service.py) -------------------------------
#: Counter{source=cache|inline|solve}: analyze requests by target resolution.
ANALYZE_REQUESTS = "repro_analyze_requests_total"
#: Histogram: wall time of one analyze request end to end.
ANALYZE_SECONDS = "repro_analyze_seconds"
#: Counter{layer=service|whatif}: probes served from a memo.
ANALYZE_MEMO = "repro_analyze_memo_hits_total"

# -- strategy co-optimization (repro/strategy, api/service.py) ----------------
#: Counter{outcome=solved|cached|error|pruned}: joint-search candidate cells
#: resolved (one series per strategy × budget cell; pruned counts strategies
#: removed from the space before any cell ran).
STRATEGY_CANDIDATES = "repro_strategy_candidates_total"
#: Histogram: wall time of one joint strategy × bandwidth search.
STRATEGY_SECONDS = "repro_strategy_search_seconds"

# -- HTTP front end (serve/http.py) ------------------------------------------
#: Counter{route, status}: requests served, by normalized route template.
HTTP_REQUESTS = "repro_http_requests_total"
#: Histogram{route}: request handling wall time.
HTTP_SECONDS = "repro_http_request_seconds"

#: Families the live-scrape test requires after it has run one optimize
#: job and one cache-backed batch job. (Gauges render
#: even at zero once registered; counters with enum labels appear once
#: any series fires; the durability and analyze families are pre-registered
#: at server construction so a healthy-but-never-crashed (or never-analyzed)
#: server still scrapes them at zero. ``CACHE_EVICTIONS`` is the one family
#: deliberately absent: it needs a bounded memory tier to overflow, which
#: no smoke run does. The ``repro_fleet_*`` families are likewise absent:
#: they register only on ``--fleet`` servers, which that test does not run.)
REQUIRED_FAMILIES = (
    SOLVER_SOLVES,
    SOLVER_SECONDS,
    SERVICE_REQUESTS,
    SERVICE_ENGINE_MEMO,
    CACHE_LOOKUPS,
    CACHE_WRITES,
    SWEEP_CELLS,
    SWEEP_CHAINS,
    JOBS_SUBMITTED,
    JOBS_COMPLETED,
    JOBS_ACTIVE,
    JOB_QUEUE_DEPTH,
    JOB_QUEUE_SECONDS,
    JOB_RUN_SECONDS,
    JOBS_RECOVERED,
    JOB_RETRIES,
    STORE_FSYNC_SECONDS,
    STORE_ORPHANS,
    CACHE_CORRUPT,
    CACHE_PEER_HITS,
    ANALYZE_REQUESTS,
    ANALYZE_SECONDS,
    ANALYZE_MEMO,
    STRATEGY_CANDIDATES,
    STRATEGY_SECONDS,
    HTTP_REQUESTS,
    HTTP_SECONDS,
)
