//! The `serve_shared` workload: a team's dashboards on one `dc-serve`
//! service.
//!
//! One generator thread sends an open loop of jobs on a fixed ladder of
//! rates, then keeps a fixed number of jobs in flight for a closed-loop
//! capacity phase. Dashboard tenants re-run a small fixed set of programs
//! over the demo `sales` table and a `targets` table; a writer thread
//! drops and re-creates `targets` on a fixed schedule through
//! `EnvHandle::with`, which bumps its version and invalidates cached
//! results built on it; one heavy tenant runs a join under the service's
//! memory budget, so it spills. Each heavy job joins a different seeded
//! range of parties, so the join executes (and spills) every time. A
//! job's latency runs from its scheduled send time to its answer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use datachat::analyze::estimate_steps;
use datachat::collab::EnvHandle;
use datachat::core::Platform;
use datachat::engine::{Column, Table};
use datachat::gel::parse_gel;
use datachat::serve::{JobHandle, JobResult, Request, ServeConfig, SessionService, TenantConfig};
use datachat::skills::{plan_linear_pushdown, SkillCall};
use datachat::storage::BudgetConfig;

use crate::measure::{emit_end_to_end, emit_layers, MB};
use crate::oracle::{one_shot, Expected};
use crate::report::Report;
use crate::rng::{mix, Rng};
use crate::stats::{self, mean, median};
use crate::world::{self, Data, Sizes, MAIN_DB};
use crate::{peak_rss_mb, rss_mb, Args};

/// A rung's tail latency must stay within this for the rung to count
/// as sustained (with no failed job and no growing backlog).
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// Per-session checkpoint ceiling. Each tenant keeps one long-lived
/// session; the service's default (256 MiB each) would let seventeen
/// sessions hold gigabytes.
const SESSION_CACHE_LIMIT: u64 = 16 << 20;

/// Dashboard programs, re-run by every dashboard tenant.
const DASHBOARDS: [&str; 6] = [
    "Load the table sales from the database MainDatabase\n\
     Keep the rows where region = 'north'\n\
     Compute the sum of price for each product",
    "Load the table sales from the database MainDatabase\n\
     Compute the average of quantity for each region",
    "Load the table sales from the database MainDatabase\n\
     Keep the rows where PurchaseStatus = 'Successful'\n\
     Compute the count of records for each region",
    "Load the table sales from the database MainDatabase\n\
     Bin the column price with width 20 and call it price_band\n\
     Compute the count of records for each price_band",
    "Load the table targets from the database MainDatabase\n\
     Compute the sum of target for each region",
    "Load the table targets from the database MainDatabase\n\
     Keep the rows where target > 500\n\
     Compute the average of target for each product",
];

/// The heavy tenant's program: a seeded range of parties (a literal that
/// differs per job, so no two heavy jobs share a cache key) joined with
/// every crash. The crashes, bound in its session at set-up, are the
/// join's build side and exceed the memory budget, so each job spills;
/// the small probe side keeps the results the shared cache admits small.
fn heavy_program((lo, hi): (i64, i64)) -> String {
    format!(
        "Load the table parties from the database MainDatabase\n\
         Keep the rows where id >= {lo} and id <= {hi}\n\
         Join with the dataset crashes on case_id\n\
         Compute the count of records for each weather"
    )
}

/// Distinct party id ranges of `rows` parties each, seeded, one per heavy
/// job plus one for the warm-up (the last).
fn heavy_literals(data: &Data, jobs: usize, rows: usize, seed: u64) -> Vec<(i64, i64)> {
    let parties = data
        .main
        .iter()
        .find(|(name, _)| name == "parties")
        .map(|(_, t)| t)
        .expect("serve data has parties");
    let (ids, _) = parties
        .column("id")
        .ok()
        .and_then(|c| c.as_ints())
        .expect("parties.id is an integer column");
    let starts = ids.len().saturating_sub(rows);
    assert!(starts > jobs, "too few parties for distinct heavy ranges");
    let mut rng = Rng::new(seed);
    let mut picked = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(jobs + 1);
    while out.len() <= jobs {
        let i = rng.range(0, starts as u64) as usize;
        if picked.insert(i) {
            out.push((ids[i], ids[i + rows - 1]));
        }
    }
    out
}

const HEAVY_SETUP: &str = "Load the table collisions from the database MainDatabase";
const HEAVY_TENANT: &str = "heavy";

/// Workload shape, per scale.
#[derive(Debug, Clone, Copy)]
struct ServeShape {
    sizes: Sizes,
    targets_rows: usize,
    tenants: usize,
    /// Open-loop dashboard rates, jobs/s, lowest first, each with its share
    /// of the run. Frozen: the rungs span from well under to above the
    /// service's saturation point (150 to 215 jobs/s on 2 cores); no rung
    /// sits at the knee, where the `max_ok_rate` verdict would flip from
    /// run to run.
    rungs: &'static [(f64, f64)],
    /// Share of the run, after the ladder, for the closed-loop capacity
    /// phase (`req_per_s`).
    capacity_share: f64,
    /// Dashboard jobs kept outstanding through the capacity phase, so the
    /// workers never wait for the generator.
    capacity_outstanding: usize,
    heavy_period: Duration,
    /// Parties per heavy job (the join's probe side).
    heavy_rows: usize,
    refresh_period: Duration,
    mem_budget: u64,
}

fn shape(tiny: bool) -> ServeShape {
    if tiny {
        ServeShape {
            sizes: Sizes {
                collisions: 300,
                sales: 2_000,
                spider_rows: 0,
            },
            targets_rows: 500,
            tenants: 4,
            rungs: &[(20.0, 0.4), (40.0, 0.3)],
            capacity_share: 0.3,
            capacity_outstanding: 4,
            heavy_period: Duration::from_millis(200),
            heavy_rows: 100,
            refresh_period: Duration::from_millis(100),
            mem_budget: 16 << 10,
        }
    } else {
        ServeShape {
            sizes: Sizes {
                collisions: 40_000,
                sales: 100_000,
                spider_rows: 0,
            },
            targets_rows: 10_000,
            tenants: 16,
            rungs: &[(40.0, 0.5), (80.0, 0.15), (400.0, 0.1)],
            capacity_share: 0.25,
            capacity_outstanding: 32,
            heavy_period: Duration::from_millis(5000),
            heavy_rows: 2_000,
            refresh_period: Duration::from_millis(500),
            mem_budget: 2 << 20,
        }
    }
}

/// The writer's table: regions × products with seeded targets.
fn targets_table(rows: usize, seed: u64) -> Table {
    let mut rng = Rng::new(seed);
    let regions = ["north", "south", "east", "west"];
    let products = ["widget", "gadget", "doohickey", "gizmo", "sprocket"];
    let pick = |rng: &mut Rng, xs: &[&str]| xs[rng.range(0, xs.len() as u64) as usize].to_string();
    let region: Vec<String> = (0..rows).map(|_| pick(&mut rng, &regions)).collect();
    let product: Vec<String> = (0..rows).map(|_| pick(&mut rng, &products)).collect();
    let target: Vec<i64> = (0..rows).map(|_| rng.range(0, 1000) as i64).collect();
    Table::new(vec![
        ("region", Column::from_strs(region)),
        ("product", Column::from_strs(product)),
        ("target", Column::from_ints(target)),
    ])
    .expect("targets schema is valid")
}

fn steps_of(program: &str) -> Vec<SkillCall> {
    program
        .lines()
        .map(|l| parse_gel(l.trim()).expect("workload programs are valid GEL"))
        .collect()
}

/// Platform, service and registered tenants: the set-up a deployment
/// pays before serving its first job.
fn build(data: &Data, targets: &Table, s: &ServeShape, seed: u64) -> (Platform, SessionService) {
    let p = world::build_platform(data, seed);
    p.env(|env| {
        env.catalog
            .database_mut(MAIN_DB)
            .and_then(|db| db.create_table("targets", targets))
            .expect("targets table is new")
    });
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1);
    let config = ServeConfig {
        workers,
        mem_budget: Some(s.mem_budget),
        session_cache_limit: Some(SESSION_CACHE_LIMIT),
        ..ServeConfig::default()
    };
    let svc = SessionService::start(p.env_handle(), config);
    // Metered tenants, so admission prices every job with the estimator;
    // the allowance is large enough that no job is refused for budget.
    let budget = BudgetConfig {
        capacity_bytes: 1 << 50,
        refill_bytes_per_sec: 1 << 40,
    };
    for t in 0..s.tenants {
        svc.register_tenant(&format!("dash{t}"), TenantConfig::new().budget(budget))
            .expect("tenant names are unique");
    }
    svc.register_tenant(HEAVY_TENANT, TenantConfig::new().budget(budget))
        .expect("tenant names are unique");
    let bind = svc.run(
        HEAVY_TENANT,
        Request::new(steps_of(HEAVY_SETUP)).named("crashes"),
    );
    bind.outcome.expect("heavy tenant's set-up load succeeds");
    (p, svc)
}

/// Run every program once per tenant, synchronously and untimed, so the
/// measured ladder starts from the steady state of dashboards that are
/// already open.
fn warm_up(svc: &SessionService, s: &ServeShape, heavy_id: (i64, i64)) {
    for t in 0..s.tenants {
        for prog in DASHBOARDS {
            let r = svc.run(&format!("dash{t}"), Request::new(steps_of(prog)));
            r.outcome.expect("warm-up dashboards succeed");
        }
    }
    svc.run(
        HEAVY_TENANT,
        Request::new(steps_of(&heavy_program(heavy_id))),
    )
    .outcome
    .expect("warm-up join succeeds");
}

/// One scheduled job.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due: Duration,
    /// Open-loop rung (the rung count = the capacity phase).
    rung: usize,
    tenant: usize,
    /// Index into the programs (`DASHBOARDS.len()` = the heavy join).
    program: usize,
    /// The heavy job's ordinal, which picks its literal (0 for dashboards).
    heavy: usize,
}

/// A frozen schedule: the open-loop jobs in due order, each rung's time
/// window, and the capacity phase's window after them.
struct Schedule {
    jobs: Vec<Planned>,
    rungs: Vec<(Duration, Duration)>,
    capacity: (Duration, Duration),
    heavy_jobs: usize,
}

impl Schedule {
    /// The base rung alone, with no capacity phase.
    fn base(&self) -> Schedule {
        Schedule {
            jobs: self.jobs.iter().copied().filter(|j| j.rung == 0).collect(),
            rungs: self.rungs[..1].to_vec(),
            capacity: (self.rungs[0].1, self.rungs[0].1),
            heavy_jobs: self.heavy_jobs,
        }
    }

    fn end(&self) -> Duration {
        self.capacity.1
    }
}

/// The frozen schedule: each rung sends dashboard jobs at its rate,
/// round-robin over tenants and programs (every seed sends the same mix;
/// the seed picks the data); the capacity phase follows; the heavy tenant
/// sends one join per `heavy_period` throughout.
fn schedule(s: &ServeShape, seconds: f64) -> Schedule {
    let mut bounds = Vec::with_capacity(s.rungs.len());
    let mut plan = Vec::new();
    let mut t0 = 0.0;
    let mut k = 0usize;
    for (r, &(rate, share)) in s.rungs.iter().enumerate() {
        let len = seconds * share;
        let jobs = (rate * len).round().max(1.0) as usize;
        for i in 0..jobs {
            plan.push(Planned {
                due: Duration::from_secs_f64(t0 + i as f64 / rate),
                rung: r,
                tenant: k % s.tenants,
                program: k % DASHBOARDS.len(),
                heavy: 0,
            });
            k += 1;
        }
        bounds.push((
            Duration::from_secs_f64(t0),
            Duration::from_secs_f64(t0 + len),
        ));
        t0 += len;
    }
    let capacity = (
        Duration::from_secs_f64(t0),
        Duration::from_secs_f64(t0 + seconds * s.capacity_share),
    );
    let mut t = Duration::from_millis(50);
    let mut heavy = 0;
    while t < capacity.1 {
        let rung = bounds.iter().position(|b| t < b.1).unwrap_or(s.rungs.len());
        plan.push(Planned {
            due: t,
            rung,
            tenant: s.tenants,
            program: DASHBOARDS.len(),
            heavy,
        });
        heavy += 1;
        t += s.heavy_period;
    }
    plan.sort_by_key(|j| j.due);
    Schedule {
        jobs: plan,
        rungs: bounds,
        capacity,
        heavy_jobs: heavy,
    }
}

/// What one job did.
#[derive(Debug, Clone)]
struct Done {
    rung: usize,
    program: usize,
    heavy: usize,
    latency_ms: f64,
    /// When the job was due and when its answer came, from the ladder's
    /// start.
    due_s: f64,
    answered_s: f64,
    gen_lag_ms: f64,
    result: Option<JobResult>,
    error: Option<String>,
}

/// Per-rung backlog: queue depth when the rung starts and ends.
#[derive(Debug, Clone, Copy, Default)]
struct Backlog {
    start: usize,
    end: usize,
}

/// One pass over a schedule.
struct LadderRun {
    done: Vec<Done>,
    backlog: Vec<Backlog>,
    refresh_ms: Vec<f64>,
    estimate_ms: Vec<f64>,
    scanned: u64,
    pruned: u64,
    cache: (datachat::skills::CacheStats, datachat::skills::CacheStats),
}

/// How often the generator looks for finished jobs in the capacity phase.
const CAPACITY_POLL: Duration = Duration::from_micros(500);

/// A submitted job: its handle, its plan entry, when it was due and
/// when it was submitted, and how late the generator was.
type Pending = (JobHandle, Planned, Instant, Instant, f64);

fn collect(job: Pending, start: Instant) -> Done {
    let (h, meta, due_at, submitted, lag_ms) = job;
    let r = h.wait();
    let latency = submitted.duration_since(due_at) + r.wall;
    Done {
        rung: meta.rung,
        program: meta.program,
        heavy: meta.heavy,
        latency_ms: latency.as_secs_f64() * 1e3,
        due_s: meta.due.as_secs_f64(),
        answered_s: (submitted.duration_since(start) + r.wall).as_secs_f64(),
        gen_lag_ms: lag_ms,
        error: r.outcome.as_ref().err().map(|e| e.to_string()),
        result: Some(r),
    }
}

/// Run `sched` against `svc` with the writer refreshing `targets`: the
/// open-loop rungs, then the capacity phase, where a new dashboard job is
/// sent whenever one of `capacity_outstanding` finishes. Heavy job `h`
/// drops party `heavy_ids[h]`. `probe_estimates` times the estimator on
/// each open-loop job's fused steps before submitting it (the traced run).
#[allow(clippy::too_many_arguments)]
fn run_ladder(
    p: &Platform,
    svc: &SessionService,
    targets: &Table,
    s: &ServeShape,
    sched: &Schedule,
    heavy_ids: &[(i64, i64)],
    probe_estimates: bool,
) -> LadderRun {
    let plan = &sched.jobs;
    let dashboards: Vec<Request> = DASHBOARDS
        .iter()
        .map(|prog| Request::new(steps_of(prog)))
        .collect();
    let heavy: Vec<Request> = heavy_ids
        .iter()
        .map(|&id| Request::new(steps_of(&heavy_program(id))))
        .collect();
    let request = |job: &Planned| -> &Request {
        if job.program == DASHBOARDS.len() {
            &heavy[job.heavy]
        } else {
            &dashboards[job.program]
        }
    };
    let fused: Vec<Vec<SkillCall>> = plan
        .iter()
        .map(|job| {
            let steps = &request(job).steps;
            if probe_estimates {
                plan_linear_pushdown(steps).unwrap_or_else(|| steps.clone())
            } else {
                Vec::new()
            }
        })
        .collect();
    let tenant_of = |job: &Planned| {
        if job.program == DASHBOARDS.len() {
            HEAVY_TENANT.to_string()
        } else {
            format!("dash{}", job.tenant)
        }
    };
    let env: EnvHandle = p.env_handle();
    let cache_before = p.materialized_cache_stats();
    let tally_before = env.with(|e| e.scan_tally);
    let rungs = sched.rungs.len();
    let mut run = LadderRun {
        done: Vec::with_capacity(plan.len()),
        backlog: vec![Backlog::default(); rungs],
        refresh_ms: Vec::new(),
        estimate_ms: Vec::new(),
        scanned: 0,
        pruned: 0,
        cache: (cache_before, cache_before),
    };
    let start = Instant::now() + Duration::from_millis(20);
    let (cap_from, cap_to) = (start + sched.capacity.0, start + sched.capacity.1);
    std::thread::scope(|scope| {
        // The writer refreshes a fixed number of times, on its own
        // schedule, however late the generator runs.
        let writer = {
            let env = env.clone();
            let period = s.refresh_period;
            let refreshes = (sched.end().as_secs_f64() / period.as_secs_f64()).floor() as u32;
            scope.spawn(move || {
                let mut refresh_ms = Vec::with_capacity(refreshes as usize);
                for i in 1..=refreshes {
                    let due = start + period * i;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let t0 = Instant::now();
                    env.with(|env| {
                        let db = env
                            .catalog
                            .database_mut(MAIN_DB)
                            .expect("main database exists");
                        db.drop_table("targets").expect("targets exists");
                        db.create_table("targets", targets)
                            .expect("targets was just dropped");
                    });
                    refresh_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                refresh_ms
            })
        };
        let mut pending: Vec<Pending> = Vec::new();
        // Capacity-phase jobs in flight, and the next one's round-robin slot.
        let mut in_flight = 0usize;
        let mut k = 0usize;
        // Rung boundaries passed so far; queue depth is read at each.
        let mut marks = 0usize;
        run.backlog[0].start = svc.queued();
        let mut jobs = plan.iter().enumerate().peekable();
        loop {
            let now = Instant::now();
            while marks < rungs && now >= start + sched.rungs[marks].1 {
                let queued = svc.queued();
                run.backlog[marks].end = queued;
                if marks + 1 < rungs {
                    run.backlog[marks + 1].start = queued;
                }
                marks += 1;
            }
            let next_due = jobs.peek().map(|(_, job)| start + job.due);
            if next_due.is_none() && now >= cap_to {
                break;
            }
            if let Some(due_at) = next_due.filter(|&d| now >= d) {
                let (i, job) = jobs.next().expect("peeked");
                let lag_ms = now.duration_since(due_at).as_secs_f64() * 1e3;
                if probe_estimates {
                    let t0 = Instant::now();
                    let est = env.with(|e| estimate_steps(e, &fused[i]));
                    std::hint::black_box(est.reserve);
                    run.estimate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                submit(
                    svc,
                    &tenant_of(job),
                    request(job),
                    *job,
                    due_at,
                    lag_ms,
                    &mut pending,
                    &mut run.done,
                );
                continue;
            }
            if now >= cap_from && now < cap_to && in_flight < s.capacity_outstanding {
                let job = Planned {
                    due: now.duration_since(start),
                    rung: rungs,
                    tenant: k % s.tenants,
                    program: k % DASHBOARDS.len(),
                    heavy: 0,
                };
                k += 1;
                in_flight += 1;
                submit(
                    svc,
                    &tenant_of(&job),
                    request(&job),
                    job,
                    now,
                    0.0,
                    &mut pending,
                    &mut run.done,
                );
                continue;
            }
            // Collect finished jobs while waiting for the next due time or
            // a free capacity slot.
            let mut j = 0;
            while j < pending.len() {
                if pending[j].0.is_ready() {
                    let done = collect(pending.swap_remove(j), start);
                    if done.rung == rungs && done.program < DASHBOARDS.len() {
                        in_flight -= 1;
                    }
                    run.done.push(done);
                } else {
                    j += 1;
                }
            }
            let wake = next_due.unwrap_or(cap_from.max(now));
            let wait = wake.saturating_duration_since(Instant::now());
            if now >= cap_from && now < cap_to {
                // The workers have a queue to drain: poll without spinning.
                std::thread::sleep(wait.min(CAPACITY_POLL));
            } else if wait > Duration::from_micros(300) {
                std::thread::sleep(wait.min(Duration::from_millis(2)) - Duration::from_micros(200));
            } else if !wait.is_zero() {
                std::hint::spin_loop();
            }
        }
        for job in pending {
            run.done.push(collect(job, start));
        }
        run.refresh_ms = writer.join().expect("writer thread panicked");
    });
    let delta = env.with(|e| e.scan_tally).delta_since(tally_before);
    run.scanned = delta.bytes_scanned;
    run.pruned = delta.bytes_pruned;
    run.cache.1 = p.materialized_cache_stats();
    run
}

/// Submit one job; a refusal is recorded as a failed job.
#[allow(clippy::too_many_arguments)]
fn submit(
    svc: &SessionService,
    tenant: &str,
    request: &Request,
    job: Planned,
    due_at: Instant,
    lag_ms: f64,
    pending: &mut Vec<Pending>,
    done: &mut Vec<Done>,
) {
    match svc.submit(tenant, request.clone()) {
        Ok(h) => pending.push((h, job, due_at, Instant::now(), lag_ms)),
        Err(e) => done.push(Done {
            rung: job.rung,
            program: job.program,
            heavy: job.heavy,
            latency_ms: f64::INFINITY,
            due_s: job.due.as_secs_f64(),
            answered_s: f64::INFINITY,
            gen_lag_ms: lag_ms,
            result: None,
            error: Some(e.to_string()),
        }),
    }
}

/// Reference answers: per dashboard program and per heavy job.
struct Refs {
    dashboards: Vec<Expected>,
    heavy: Vec<Expected>,
}

impl Refs {
    fn of(&self, d: &Done) -> &Expected {
        if d.program == DASHBOARDS.len() {
            &self.heavy[d.heavy]
        } else {
            &self.dashboards[d.program]
        }
    }
}

/// One-shot, as written, in memory (no memory budget, so no spill).
fn references(p: &Platform, heavy_ids: &[(i64, i64)]) -> Refs {
    let dashboards = DASHBOARDS
        .iter()
        .map(|prog| last_output(one_shot(p, &steps_of(prog), &[])))
        .collect();
    let heavy = heavy_ids
        .iter()
        .map(|&id| {
            let mut steps = steps_of(HEAVY_SETUP);
            steps.extend(steps_of(&heavy_program(id)));
            let bind = steps_of(HEAVY_SETUP).len() - 1;
            last_output(one_shot(p, &steps, &[(bind, "crashes".to_string())]))
        })
        .collect();
    Refs { dashboards, heavy }
}

fn last_output(outs: Vec<Result<datachat::skills::SkillOutput, String>>) -> Expected {
    match outs.into_iter().last() {
        Some(Ok(out)) => Expected::Output(out),
        Some(Err(e)) => Expected::Unavailable(e),
        None => Expected::Unavailable("empty program".into()),
    }
}

/// Check every answered job; returns the mismatch count.
fn check(run: &LadderRun, refs: &Refs) -> usize {
    let mut bad = 0;
    for d in &run.done {
        if let Some(Ok(out)) = d.result.as_ref().map(|r| &r.outcome) {
            if !refs.of(d).matches(out) {
                bad += 1;
                eprintln!("MISMATCH in serve program {}", d.program);
            }
        }
    }
    bad
}

/// Per-rung verdicts: (rate, tail, failures, sustained).
fn rung_table(s: &ServeShape, run: &LadderRun) -> Vec<(f64, stats::Tail, usize, bool)> {
    s.rungs
        .iter()
        .enumerate()
        .map(|(r, &(rate, _))| {
            let jobs: Vec<&Done> = run.done.iter().filter(|d| d.rung == r).collect();
            let failed = jobs.iter().filter(|d| d.error.is_some()).count();
            let lat: Vec<f64> = jobs
                .iter()
                .filter(|d| d.error.is_none())
                .map(|d| d.latency_ms)
                .collect();
            let tail = stats::tail(&lat);
            let b = run.backlog[r];
            let ok = failed == 0
                && !lat.is_empty()
                && tail.value <= LATENCY_LIMIT_MS
                && b.end <= b.start + 1;
            (rate, tail, failed, ok)
        })
        .collect()
}

/// Latencies of the base rung's dashboard jobs: the jobs sent at the base
/// rate. The heavy tenant's joins, which every dashboard job queued
/// behind them waits for, are reported on their own.
fn base_latencies(run: &LadderRun) -> Vec<f64> {
    base_latencies_within(run, 0.0, f64::INFINITY)
}

/// [`base_latencies`] of the jobs due in `[from, to)` seconds.
fn base_latencies_within(run: &LadderRun, from: f64, to: f64) -> Vec<f64> {
    run.done
        .iter()
        .filter(|d| d.rung == 0 && d.error.is_none() && d.program < DASHBOARDS.len())
        .filter(|d| d.due_s >= from && d.due_s < to)
        .map(|d| d.latency_ms)
        .collect()
}

/// Equal windows of the base rung that `tail_ms` is taken over.
const TAIL_WINDOWS: usize = 3;

/// `tail_ms`: the median over [`TAIL_WINDOWS`] equal windows of the base
/// rung (by due time) of each window's tail ([`stats::tail`]), returned
/// with the windows' tails. A stall of the machine lifts the tail of the
/// window it falls in; the median keeps one such window out.
fn windowed_tail(run: &LadderRun, sched: &Schedule) -> (f64, Vec<stats::Tail>) {
    let (lo, hi) = sched.rungs[0];
    let len = (hi - lo).as_secs_f64() / TAIL_WINDOWS as f64;
    let tails: Vec<stats::Tail> = (0..TAIL_WINDOWS)
        .map(|w| {
            let from = lo.as_secs_f64() + w as f64 * len;
            stats::tail(&base_latencies_within(run, from, from + len))
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    (median(&values), tails)
}

/// Equal windows of the capacity phase that `req_per_s` is taken over.
const CAPACITY_WINDOWS: usize = 3;

/// `req_per_s`: jobs answered per second in the capacity phase, whose
/// closed loop keeps `capacity_outstanding` dashboard jobs in flight, so
/// the workers never run dry and the completion rate is the service's
/// capacity. Every job answered counts (the overload rung's backlog and
/// heavy joins as well). The rate is the median over
/// [`CAPACITY_WINDOWS`] equal windows of the phase, returned with the
/// windows' rates, so a stall of the machine in one window is kept out.
fn capacity(sched: &Schedule, run: &LadderRun) -> (f64, Vec<f64>) {
    let (from, to) = (
        sched.capacity.0.as_secs_f64(),
        sched.capacity.1.as_secs_f64(),
    );
    let len = (to - from) / CAPACITY_WINDOWS as f64;
    let rates: Vec<f64> = (0..CAPACITY_WINDOWS)
        .map(|w| {
            let lo = from + w as f64 * len;
            let answered = run
                .done
                .iter()
                .filter(|d| d.error.is_none() && d.answered_s >= lo && d.answered_s < lo + len)
                .count();
            answered as f64 / len
        })
        .collect();
    (median(&rates), rates)
}

/// Scan bytes charged per answered job of the first `rungs` open-loop
/// rungs, in MB: the user's bill per request. The capacity phase is left
/// out, as its job count depends on the service's speed.
fn charged_mb(run: &LadderRun, rungs: usize) -> f64 {
    let charged: Vec<f64> = run
        .done
        .iter()
        .filter(|d| d.rung < rungs)
        .filter_map(|d| d.result.as_ref())
        .filter(|r| r.outcome.is_ok())
        .map(|r| r.bytes_charged as f64 / MB)
        .collect();
    mean(&charged)
}

/// The highest rung, counting up from the base, that every lower rung
/// also sustained.
fn max_ok_rate(rungs: &[(f64, stats::Tail, usize, bool)]) -> f64 {
    rungs.iter().take_while(|r| r.3).last().map_or(0.0, |r| r.0)
}

pub fn run(args: &Args) -> Report {
    let s = shape(args.tiny);
    let data = world::generate(s.sizes, args.seed);
    let targets = targets_table(s.targets_rows, mix(args.seed, 0x7a9e));
    let mut report = Report::new();
    let sched = schedule(&s, args.seconds);
    let ids = heavy_literals(
        &data,
        sched.heavy_jobs,
        s.heavy_rows,
        mix(args.seed, 0x4ea7),
    );
    let (&warm_id, heavy_ids) = ids.split_last().expect("a warm-up literal");
    let rss_before = rss_mb();

    let ((p, svc), setups) =
        world::repeat_setup(args.trace, || build(&data, &targets, &s, args.seed));
    let refs = references(&p, heavy_ids);

    if args.trace {
        let ladder = Ladder {
            sched: &sched,
            heavy_ids,
            warm_id,
            refs: &refs,
        };
        traced(args, &s, &data, &targets, &ladder, p, svc, &mut report);
        return report;
    }
    drop(data);
    warm_up(&svc, &s, warm_id);
    let run = run_ladder(&p, &svc, &targets, &s, &sched, heavy_ids, false);
    svc.shutdown();
    account(&mut report, &run, &refs);

    let lat = base_latencies(&run);
    let (tail, windows) = windowed_tail(&run, &sched);
    let rungs = rung_table(&s, &run);
    let max_ok = max_ok_rate(&rungs);
    let (cap, cap_windows) = capacity(&sched, &run);
    emit_end_to_end(
        &mut report,
        [
            median(&setups),
            median(&lat),
            tail,
            cap,
            charged_mb(&run, sched.rungs.len()),
            peak_rss_mb(),
        ],
    );
    let window_notes: Vec<String> = windows
        .iter()
        .map(|t| {
            format!(
                "p{} {:.3} ms of {} jobs, {} beyond",
                t.percentile, t.value, t.samples, t.beyond
            )
        })
        .collect();
    report.note(format!(
        "open loop, 1 generator + 1 writer thread; job_p50_ms={:.3} over {} base-rate dashboard jobs; \
         job_tail_ms={tail:.3}, the median of {TAIL_WINDOWS} windows' tails: {}",
        median(&lat),
        lat.len(),
        window_notes.join("; ")
    ));
    report.note(format!(
        "max_ok_rate={max_ok} jobs/s (tail <= {LATENCY_LIMIT_MS} ms, no failures, no growing backlog); \
         req_per_s={cap:.3}: jobs answered per second in the {:.1} s capacity phase ({} dashboard jobs kept in flight), \
         the median of {CAPACITY_WINDOWS} windows: {:.3?}",
        (sched.capacity.1 - sched.capacity.0).as_secs_f64(),
        s.capacity_outstanding,
        cap_windows
    ));
    report.note(format!(
        "process RSS before set-up {rss_before:.1} MB (generated tables and schedule, the benchmark's own); peak {:.1} MB",
        peak_rss_mb()
    ));
    rung_notes(&mut report, &rungs, &run);
    let (c0, c1) = run.cache;
    report.note(format!(
        "refresh_p50_ms={:.3} over {} writer refreshes; {} set-ups, median {:.6} s; \
         shared cache: {} hits, {} misses, {} evictions",
        median(&run.refresh_ms),
        run.refresh_ms.len(),
        setups.len(),
        median(&setups),
        c1.hits - c0.hits,
        c1.misses - c0.misses,
        c1.evictions - c0.evictions
    ));
    report
}

fn rung_notes(report: &mut Report, rungs: &[(f64, stats::Tail, usize, bool)], run: &LadderRun) {
    for (r, (rate, tail, failed, ok)) in rungs.iter().enumerate() {
        let b = run.backlog[r];
        let lag: Vec<f64> = run
            .done
            .iter()
            .filter(|d| d.rung == r)
            .map(|d| d.gen_lag_ms)
            .collect();
        report.note(format!(
            "rung {rate:>6} jobs/s: p{} {:>9.3} ms over {} jobs, {failed} failed, queue {}->{}, generator {:.3} ms late on average, {}",
            tail.percentile,
            tail.value,
            tail.samples,
            b.start,
            b.end,
            mean(&lag),
            if *ok { "sustained" } else { "not sustained" }
        ));
    }
}

fn account(report: &mut Report, run: &LadderRun, refs: &Refs) {
    report.attempted += run.done.len() as u64;
    report.failed += run.done.iter().filter(|d| d.error.is_some()).count() as u64;
    let mut causes: BTreeMap<String, usize> = BTreeMap::new();
    for d in &run.done {
        if let Some(e) = &d.error {
            *causes.entry(e.chars().take(90).collect()).or_default() += 1;
        }
    }
    for (cause, n) in causes {
        report.note(format!("failed x{n}: {cause}"));
    }
    let bad = check(run, refs);
    if bad > 0 {
        report.correct = false;
        report.note(format!("{bad} answered job(s) differ from their reference"));
    }
    check_spill(report, run);
    report.note(format!(
        "failed_share={:.4} ({} of {} jobs)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
}

/// The heavy join must spill on every pass: a pass whose heavy jobs
/// spilled nothing did not exercise the layer this workload measures.
fn check_spill(report: &mut Report, run: &LadderRun) {
    let heavy: Vec<&JobResult> = run
        .done
        .iter()
        .filter(|d| d.program == DASHBOARDS.len())
        .filter_map(|d| d.result.as_ref())
        .collect();
    let spilled: u64 = heavy.iter().map(|r| r.bytes_spilled).sum();
    let jobs = heavy.iter().filter(|r| r.bytes_spilled > 0).count();
    let exec: Vec<f64> = heavy.iter().map(|r| r.exec.as_secs_f64() * 1e3).collect();
    let wall: Vec<f64> = heavy.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let others = run
        .done
        .iter()
        .filter(|d| d.program < DASHBOARDS.len())
        .filter_map(|d| d.result.as_ref())
        .filter(|r| r.bytes_spilled > 0)
        .count();
    report.note(format!(
        "heavy joins: {jobs} of {} jobs spilled, {:.2} MB in total; median exec {:.3} ms, wall {:.3} ms; \
         {others} dashboard jobs spilled",
        heavy.len(),
        spilled as f64 / MB,
        median(&exec),
        median(&wall)
    ));
    if !heavy.is_empty() && spilled == 0 {
        report.correct = false;
        report.note("the heavy tenant's joins spilled 0 bytes under the memory budget");
    }
}

/// The schedule and its per-job inputs, shared by the traced passes.
struct Ladder<'a> {
    sched: &'a Schedule,
    heavy_ids: &'a [(i64, i64)],
    warm_id: (i64, i64),
    refs: &'a Refs,
}

/// The traced run: the base rung once without probes, then the whole
/// ladder with the estimator probe and per-job breakdowns.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    s: &ServeShape,
    data: &Data,
    targets: &Table,
    ladder: &Ladder,
    p: Platform,
    svc: SessionService,
    report: &mut Report,
) {
    warm_up(&svc, s, ladder.warm_id);
    let base = ladder.sched.base();
    let plain = run_ladder(&p, &svc, targets, s, &base, ladder.heavy_ids, false);
    svc.shutdown();
    drop(p);
    let (p, svc) = build(data, targets, s, args.seed);
    warm_up(&svc, s, ladder.warm_id);
    let run = run_ladder(&p, &svc, targets, s, ladder.sched, ladder.heavy_ids, true);
    svc.shutdown();
    account(report, &run, ladder.refs);
    if check(&plain, ladder.refs) > 0 {
        report.correct = false;
    }
    check_spill(report, &plain);

    let answered: Vec<&JobResult> = run.done.iter().filter_map(|d| d.result.as_ref()).collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let queue: Vec<f64> = answered.iter().map(|r| ms(r.queued)).collect();
    let exec: Vec<f64> = answered.iter().map(|r| ms(r.exec)).collect();
    let other: Vec<f64> = answered
        .iter()
        .map(|r| ms(r.wall.saturating_sub(r.queued).saturating_sub(r.exec)))
        .collect();
    let (c0, c1) = run.cache;
    let hits = c1.hits - c0.hits;
    let misses = c1.misses - c0.misses;
    let reserved: u64 = answered.iter().map(|r| r.bytes_reserved).sum();
    let charged: u64 = answered.iter().map(|r| r.bytes_charged).sum();
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    set("analyze.estimate_ms", mean(&run.estimate_ms));
    set(
        "analyze.reserved_per_charged",
        reserved as f64 / charged.max(1) as f64,
    );
    set("cache.hits", hits as f64);
    set("cache.misses", misses as f64);
    set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    set("cache.evictions", (c1.evictions - c0.evictions) as f64);
    set(
        "cache.bytes_saved_mb",
        (c1.bytes_saved - c0.bytes_saved) as f64 / MB,
    );
    set("cache.resident_mb", c1.resident_bytes as f64 / MB);
    set("storage.scanned_mb", run.scanned as f64 / MB);
    set("storage.pruned_mb", run.pruned as f64 / MB);
    set(
        "storage.pruned_share",
        run.pruned as f64 / (run.scanned + run.pruned).max(1) as f64,
    );
    set(
        "engine.spill_mb",
        answered.iter().map(|r| r.bytes_spilled).sum::<u64>() as f64 / MB,
    );
    set(
        "engine.spilled_reqs",
        answered.iter().filter(|r| r.bytes_spilled > 0).count() as f64,
    );
    set("serve.queue_ms", mean(&queue));
    set("serve.exec_ms", mean(&exec));
    set("serve.other_ms", mean(&other));
    set(
        "serve.preemptions",
        answered.iter().map(|r| r.preemptions as u64).sum::<u64>() as f64,
    );
    // Generator lateness where latency is reported (the base rung); the
    // overloaded rungs' lateness is in the notes.
    let lags: Vec<f64> = run
        .done
        .iter()
        .filter(|d| d.rung == 0)
        .map(|d| d.gen_lag_ms)
        .collect();
    set("serve.gen_lag_ms", mean(&lags));
    set("serve.refresh_p50_ms", median(&run.refresh_ms));
    let rungs = rung_table(s, &run);
    set("serve.max_ok_rate", max_ok_rate(&rungs));
    set(
        "req.failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    let traced_p50 = median(&base_latencies(&run));
    let plain_p50 = median(&base_latencies(&plain));
    set("trace.overhead", traced_p50 / plain_p50 - 1.0);
    emit_layers(report, &v);

    rung_notes(report, &rungs, &run);
    report.note(format!(
        "base rung p50 {plain_p50:.3} ms plain vs {traced_p50:.3} ms with the estimator probe; \
         traced ladder capacity {:.3} jobs/s",
        capacity(ladder.sched, &run).0
    ));
    // Serve counters depend on timing: report both passes over the base
    // rung's schedule side by side instead of asserting they repeat.
    let (a, b) = plain.cache;
    let (h0, m0) = (b.hits - a.hits, b.misses - a.misses);
    report.note(format!(
        "timing-dependent counters: base rung alone {:.4} MB charged/job, cache hit ratio {:.3}; \
         traced run's base rung {:.4} MB charged/job, whole run's hit ratio {:.3}",
        charged_mb(&plain, 1),
        h0 as f64 / (h0 + m0).max(1) as f64,
        charged_mb(&run, 1),
        hits as f64 / (hits + misses).max(1) as f64
    ));
}
