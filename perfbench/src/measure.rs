//! Metric catalogue and the chat workloads' measurement loop.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::chat::{
    run_conversation, ConvRun, Conversation, Counters, LayerObs, MsgRecord, Shape, Stream,
};
use crate::report::Report;
use crate::stats::{self, mean, median};
use crate::trace::Tracer;
use crate::world::{self, Sizes};
use crate::{peak_rss_mb, rss_mb, Args};

pub const MB: f64 = 1024.0 * 1024.0;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("scan_mb_per_req", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Emit the end-to-end metrics, values in [`END_TO_END`] order.
pub fn emit_end_to_end(report: &mut Report, values: [f64; END_TO_END.len()]) {
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        report.metric(*name, v, unit);
    }
}

/// Skills whose per-node execution time is reported.
pub const SKILLS: [&str; 11] = [
    "LoadTable",
    "LoadTableFiltered",
    "LoadTableProjected",
    "KeepRows",
    "KeepColumns",
    "CreateColumn",
    "DropMissing",
    "BinColumn",
    "Compute",
    "Join",
    "Visualize",
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0
/// where a layer is not on a workload's path).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("gel.parse_us", "us"),
        ("nl.translate_ms", "ms"),
        ("nl.prompt_tokens", "tokens"),
        ("analyze.preflight_ms", "ms"),
        ("analyze.estimate_ms", "ms"),
        ("analyze.reserved_per_charged", "ratio"),
        ("optimize.ms", "ms"),
        ("optimize.dag_nodes", "count"),
        ("optimize.step_growth", "ratio"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.hit_ratio", "share"),
        ("cache.evictions", "count"),
        ("cache.bytes_saved_mb", "MB"),
        ("cache.resident_mb", "MB"),
        ("exec.ms", "ms"),
        ("exec.step_growth", "ratio"),
        ("exec.nodes_executed", "count"),
        ("exec.nodes_cached", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    v.extend(SKILLS.iter().map(|s| (format!("exec.skill_ms.{s}"), "ms")));
    v.extend(
        [
            ("storage.scanned_mb", "MB"),
            ("storage.pruned_mb", "MB"),
            ("storage.pruned_share", "share"),
            ("engine.spill_mb", "MB"),
            ("engine.spilled_reqs", "count"),
            ("session.checkpoint_mb", "MB"),
            ("serve.queue_ms", "ms"),
            ("serve.exec_ms", "ms"),
            ("serve.other_ms", "ms"),
            ("serve.preemptions", "count"),
            ("serve.gen_lag_ms", "ms"),
            ("serve.refresh_p50_ms", "ms"),
            ("serve.max_ok_rate", "1/s"),
            ("viz.render_ms", "ms"),
            ("req.failed_share", "share"),
            ("req.final_step_ms", "ms"),
            ("trace.coverage_min", "share"),
            ("trace.residual_ms", "ms"),
            ("trace.overhead", "share"),
            ("trace.counters_repeat", "bool"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// Emit every per-layer metric, taking values from `values` (0 if absent).
pub fn emit_layers(report: &mut Report, values: &BTreeMap<String, f64>) {
    for (name, unit) in per_layer() {
        let v = values.get(&name).copied().unwrap_or(0.0);
        report.metric(name, v, unit);
    }
    for name in values.keys() {
        assert!(
            per_layer().iter().any(|(n, _)| n == name),
            "per-layer value {name} has no catalogue entry"
        );
    }
}

pub fn chat_shape(workload: &str, tiny: bool) -> Shape {
    match (workload, tiny) {
        ("chat_cold", false) => Shape {
            sizes: Sizes {
                collisions: 40_000,
                sales: 400_000,
                spider_rows: 200_000,
            },
            nl_per_chunk: 8,
            recipes_per_chunk: 1,
            visualize_per_chunk: 1,
            growth_lengths: &[],
            trace_chunks: 4,
            // About 840 messages: the tail stays p95 (p99 needs 1000) even
            // when the machine runs fast, so runs report one percentile.
            max_chunks: 60,
        },
        ("chat_cold", true) => Shape {
            sizes: Sizes {
                collisions: 300,
                sales: 2_000,
                spider_rows: 500,
            },
            nl_per_chunk: 4,
            recipes_per_chunk: 1,
            visualize_per_chunk: 1,
            growth_lengths: &[],
            trace_chunks: 1,
            max_chunks: 12,
        },
        (_, false) => Shape {
            sizes: Sizes {
                collisions: 0,
                sales: 6_000,
                spider_rows: 0,
            },
            nl_per_chunk: 0,
            recipes_per_chunk: 0,
            visualize_per_chunk: 0,
            growth_lengths: &[31, 34, 37, 40],
            trace_chunks: 1,
            max_chunks: 100,
        },
        (_, true) => Shape {
            sizes: Sizes {
                collisions: 0,
                sales: 500,
                spider_rows: 0,
            },
            nl_per_chunk: 0,
            recipes_per_chunk: 0,
            visualize_per_chunk: 0,
            growth_lengths: &[6, 8],
            trace_chunks: 1,
            max_chunks: 1,
        },
    }
}

/// Share of each chat request's wall time its child spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Seconds of throwaway requests before the traced run's measured passes.
const WARM_UP_S: f64 = 0.5;

/// Records and counters of one pass over some chunks.
#[derive(Default)]
struct Pass {
    records: Vec<MsgRecord>,
    checkpoints: Vec<u64>,
    counters: Counters,
    /// Timed seconds (requests only).
    wall_s: f64,
    /// Messages per second of each chunk.
    chunk_rates: Vec<f64>,
    /// Untimed seconds spent computing references and checking.
    check_s: f64,
}

/// Run conversations on `p` (timed), then check their answers (untimed).
fn run_chunk(
    p: &mut datachat::core::Platform,
    stream: &mut Stream,
    convs: &[Conversation],
    pass: &mut Pass,
    mut tracing: Option<(&mut Tracer, &mut LayerObs, &mut u64)>,
) {
    let t0 = Instant::now();
    let runs: Vec<ConvRun> = convs
        .iter()
        .map(|conv| {
            let t = tracing
                .as_mut()
                .map(|(a, b, c)| (&mut **a, &mut **b, &mut **c));
            run_conversation(p, conv, t)
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    pass.wall_s += wall;
    let msgs: usize = runs.iter().map(|r| r.records.len()).sum();
    pass.chunk_rates.push(msgs as f64 / wall);
    let t1 = Instant::now();
    for (conv, mut run) in convs.iter().zip(runs) {
        stream.check(p, conv, &run.answers, &mut run.records);
        pass.records.extend(run.records);
        pass.checkpoints.push(run.checkpoint_bytes);
    }
    pass.check_s += t1.elapsed().as_secs_f64();
}

fn finish_counters(
    p: &datachat::core::Platform,
    before: datachat::skills::CacheStats,
    pass: &mut Pass,
) {
    let after = p.materialized_cache_stats();
    pass.counters = Counters {
        scanned: pass.records.iter().map(|r| r.scanned).sum(),
        pruned: pass.records.iter().map(|r| r.pruned).sum(),
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
        cache_evictions: after.evictions - before.evictions,
        checkpoint_bytes: pass.checkpoints.iter().sum(),
    };
}

/// Median over conversations of each conversation's last message.
fn final_step_ms(records: &[MsgRecord]) -> f64 {
    let last: Vec<f64> = records
        .iter()
        .filter(|r| r.last_in_conv)
        .map(|r| r.latency_ms)
        .collect();
    median(&last)
}

fn tally(report: &mut Report, records: &[MsgRecord]) {
    report.attempted += records.len() as u64;
    report.failed += records.iter().filter(|r| r.failed).count() as u64;
    let mut causes: BTreeMap<(String, String), usize> = BTreeMap::new();
    for r in records {
        if let Some(e) = &r.error {
            let kind = r
                .label
                .split(['/', '~'])
                .take(2)
                .collect::<Vec<_>>()
                .join("/");
            let cause: String = e.lines().next().unwrap_or("").chars().take(90).collect();
            *causes.entry((kind, cause)).or_default() += 1;
        }
    }
    for ((kind, cause), n) in causes {
        report.note(format!("failed x{n} [{kind}]: {cause}"));
    }
    let mismatches = records.iter().filter(|r| r.mismatch).count();
    if mismatches > 0 {
        report.correct = false;
        report.note(format!(
            "{mismatches} successful answer(s) differ from their reference"
        ));
    }
}

pub fn run_chat(args: &Args) -> Report {
    let workload: &'static str = if args.workload == "chat_cold" {
        "chat_cold"
    } else {
        "session_growth"
    };
    let shape = chat_shape(workload, args.tiny);
    let t_gen = Instant::now();
    let data = world::generate(shape.sizes, args.seed);
    let mut report = Report::new();
    let rss_before = rss_mb();
    report.note(format!(
        "data generation {:.2} s (untimed); process RSS before set-up {rss_before:.1} MB \
         (the benchmark's generated tables)",
        t_gen.elapsed().as_secs_f64()
    ));
    if args.trace {
        traced(args, workload, shape, &data, &mut report);
        return report;
    }
    let (mut p, setups) = world::repeat_setup(false, || world::build_platform(&data, args.seed));
    // The generated tables are the benchmark's, not the program's: the
    // spider tables move into the gold environment and the rest are
    // dropped, so the peak RSS holds one copy of each.
    let world::Data { main, spider } = data;
    drop(main);
    let mut stream = Stream::new(workload, shape, args.seed, world::gold_env(spider));
    // Chunk 0 warms the process and the shared cache (first-touch page
    // faults, a cache that has never evicted); it is run but not recorded.
    let warm = stream.chunk(0);
    let mut warm_pass = Pass::default();
    run_chunk(&mut p, &mut stream, &warm, &mut warm_pass, None);
    if warm_pass.records.iter().any(|r| r.mismatch) {
        report.correct = false;
        report.note("a warm-up answer differs from its reference");
    }
    let cache_before = p.materialized_cache_stats();
    let mut pass = Pass::default();
    let mut chunks = 0u64;
    while chunks < shape.max_chunks as u64 && (chunks == 0 || pass.wall_s < args.seconds) {
        let convs = stream.chunk(chunks + 1);
        run_chunk(&mut p, &mut stream, &convs, &mut pass, None);
        chunks += 1;
    }
    finish_counters(&p, cache_before, &mut pass);
    tally(&mut report, &pass.records);

    let lat: Vec<f64> = pass.records.iter().map(|r| r.latency_ms).collect();
    let tail = stats::tail(&lat);
    let n = pass.records.len() as f64;
    emit_end_to_end(
        &mut report,
        [
            median(&setups),
            median(&lat),
            tail.value,
            median(&pass.chunk_rates),
            pass.counters.scanned as f64 / MB / n,
            peak_rss_mb(),
        ],
    );
    let c = pass.counters;
    report.note(format!(
        "reference answers and checks {:.2} s (untimed)",
        pass.check_s
    ));
    report.note(format!(
        "messages per second by chunk: {:?}",
        pass.chunk_rates
            .iter()
            .map(|r| (r * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    report.note(format!(
        "tail_ms is p{} of {} messages ({} beyond); {} chunks, {} conversations in {:.2} s; closed loop, 1 caller",
        tail.percentile,
        tail.samples,
        tail.beyond,
        chunks,
        pass.checkpoints.len(),
        pass.wall_s
    ));
    report.note(format!(
        "msg_p50_ms={:.3} msg_tail_ms={:.3} msgs_per_s={:.3} (median over chunks; {:.3} overall) final_step_ms={:.3} failed_share={:.4} ({} of {})",
        median(&lat),
        tail.value,
        median(&pass.chunk_rates),
        n / pass.wall_s,
        final_step_ms(&pass.records),
        report.failed as f64 / n.max(1.0),
        report.failed,
        report.attempted
    ));
    report.note(format!(
        "{} set-ups, median {:.6} s; cache hits={} misses={} evictions={}; scanned={:.1} MB pruned={:.1} MB",
        setups.len(), median(&setups), c.cache_hits, c.cache_misses, c.cache_evictions,
        c.scanned as f64 / MB,
        c.pruned as f64 / MB
    ));
    if workload == "chat_cold" {
        report.note(
            "known defect: NL join questions and recipes whose join names a catalog table fail \
             with `dataset not found` (the chat path loads the root table but never binds catalog \
             tables as datasets); they stay in the mix and count as failures",
        );
    }
    report
}

/// The traced run: the same fixed chunks replayed once through
/// `Platform::chat` and once layer by layer, each on a fresh platform.
fn traced(
    args: &Args,
    workload: &'static str,
    shape: Shape,
    data: &world::Data,
    report: &mut Report,
) {
    let mut stream = Stream::new(
        workload,
        shape,
        args.seed,
        world::gold_env(data.spider.clone()),
    );
    let chunks: Vec<Vec<Conversation>> = (0..shape.trace_chunks as u64)
        .map(|c| stream.chunk(c))
        .collect();

    // Warm the process (allocator, page tables) on a throwaway platform
    // with other requests, so neither measured pass runs first-touch.
    {
        let (mut warm, _) = world::repeat_setup(true, || world::build_platform(data, args.seed));
        let t0 = Instant::now();
        for conv in stream.chunk(shape.trace_chunks as u64) {
            if t0.elapsed().as_secs_f64() > WARM_UP_S {
                break;
            }
            run_conversation(&mut warm, &conv, None);
        }
    }

    let (mut p, _) = world::repeat_setup(true, || world::build_platform(data, args.seed));

    let before = p.materialized_cache_stats();
    let mut plain = Pass::default();
    for convs in &chunks {
        run_chunk(&mut p, &mut stream, convs, &mut plain, None);
    }
    finish_counters(&p, before, &mut plain);
    drop(p);

    let (mut p, _) = world::repeat_setup(true, || world::build_platform(data, args.seed));
    let before = p.materialized_cache_stats();
    let mut tracer = Tracer::new();
    let mut obs = LayerObs::default();
    let mut next_req = 0u64;
    let mut traced = Pass::default();
    for convs in &chunks {
        run_chunk(
            &mut p,
            &mut stream,
            convs,
            &mut traced,
            Some((&mut tracer, &mut obs, &mut next_req)),
        );
    }
    finish_counters(&p, before, &mut traced);
    let cache_after = p.materialized_cache_stats();
    tally(report, &traced.records);
    if plain.records.iter().any(|r| r.mismatch) {
        report.correct = false;
    }

    let totals = tracer.layer_totals();
    let cov = tracer.coverage();
    let per_call = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ms_per_call());
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    set("gel.parse_us", per_call("gel.parse") * 1e3);
    set("nl.translate_ms", per_call("nl.translate"));
    set("nl.prompt_tokens", mean(&obs.prompt_tokens));
    set("analyze.preflight_ms", per_call("analyze.preflight"));
    set("optimize.ms", per_call("optimize"));
    let dag: Vec<f64> = obs.dag_nodes.iter().map(|x| x.1).collect();
    set("optimize.dag_nodes", mean(&dag));
    set("optimize.step_growth", step_growth(&obs.dag_nodes));
    let c = traced.counters;
    set("cache.hits", c.cache_hits as f64);
    set("cache.misses", c.cache_misses as f64);
    set(
        "cache.hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
    );
    set("cache.evictions", c.cache_evictions as f64);
    set(
        "cache.bytes_saved_mb",
        (cache_after.bytes_saved - before.bytes_saved) as f64 / MB,
    );
    set("cache.resident_mb", cache_after.resident_bytes as f64 / MB);
    let exec: Vec<f64> = obs.exec_ms.iter().map(|x| x.1).collect();
    set("exec.ms", mean(&exec));
    set("exec.step_growth", step_growth(&obs.exec_ms));
    set("exec.nodes_executed", obs.nodes_executed as f64);
    set("exec.nodes_cached", obs.nodes_cached as f64);
    for s in crate::measure::SKILLS {
        set(
            &format!("exec.skill_ms.{s}"),
            obs.skill_ms.get(s).map_or(0.0, |w| mean(w)),
        );
    }
    set("storage.scanned_mb", c.scanned as f64 / MB);
    set("storage.pruned_mb", c.pruned as f64 / MB);
    set(
        "storage.pruned_share",
        c.pruned as f64 / (c.scanned + c.pruned).max(1) as f64,
    );
    set("engine.spill_mb", obs.spill_bytes as f64 / MB);
    set("engine.spilled_reqs", obs.spilled_reqs as f64);
    set(
        "session.checkpoint_mb",
        c.checkpoint_bytes as f64 / MB / traced.checkpoints.len().max(1) as f64,
    );
    set("viz.render_ms", per_call("viz.render"));
    let n = traced.records.len().max(1) as f64;
    set("req.failed_share", report.failed as f64 / n);
    set("req.final_step_ms", final_step_ms(&plain.records));
    set("trace.coverage_min", cov.min_share);
    set("trace.residual_ms", cov.residual_ms);
    let overhead = traced.wall_s / plain.wall_s - 1.0;
    set("trace.overhead", overhead);
    set(
        "trace.counters_repeat",
        (plain.counters == traced.counters) as u8 as f64,
    );
    emit_layers(report, &v);

    report.note(format!(
        "traced {} messages in {} conversations; children cover {:.2}% of request wall time \
         (worst request {:.2}%), residual {:.3} ms; tracing overhead {:+.2}% ({:.3} s traced vs {:.3} s plain)",
        traced.records.len(),
        traced.checkpoints.len(),
        cov.total_share * 100.0,
        cov.min_share * 100.0,
        cov.residual_ms,
        overhead * 100.0,
        traced.wall_s,
        plain.wall_s
    ));
    // Trace sanity: the replay must account for each request's time and
    // do exactly the work `Platform::chat` does, or its per-layer figures
    // describe some other program.
    if cov.min_share < MIN_COVERAGE {
        report.correct = false;
        report.note(format!(
            "a request's child spans cover {:.2}% of its wall time, under {:.0}%",
            cov.min_share * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    report.note(format!(
        "exact counters plain={:?} traced={:?}",
        plain.counters, traced.counters
    ));
    if plain.counters != traced.counters {
        report.correct = false;
        report.note("the traced replay's exact counters differ from Platform::chat's");
    }
    for (name, t) in &totals {
        report.note(format!(
            "span {name:<18} calls={:<6} self={:>10.3} ms total={:>10.3} ms",
            t.calls,
            t.self_ns as f64 / 1e6,
            t.total_ns as f64 / 1e6
        ));
    }
    for (skill, w) in &obs.skill_ms {
        report.note(format!(
            "node {skill:<20} n={:<6} mean={:.3} ms",
            w.len(),
            mean(w)
        ));
    }
    if workload == "session_growth" {
        for (lo, hi) in [(0, 5), (5, 10), (10, 20), (20, 30), (30, 40)] {
            let pick = |xs: &[(usize, f64)]| -> Vec<f64> {
                xs.iter()
                    .filter(|(s, _)| *s >= lo && *s < hi)
                    .map(|x| x.1)
                    .collect()
            };
            report.note(format!(
                "steps {lo:>2}..{hi:<2}: exec.ms={:>9.3} optimize.dag_nodes={:>6.1}",
                mean(&pick(&obs.exec_ms)),
                mean(&pick(&obs.dag_nodes))
            ));
        }
    }
    let path =
        std::path::Path::new(".bench_trace").join(format!("{workload}-seed{}.jsonl", args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Mean of the last five steps over the mean of steps 1..=5 (step 0 is
/// the load): how per-step cost grows with session length.
fn step_growth(xs: &[(usize, f64)]) -> f64 {
    let max = xs.iter().map(|x| x.0).max().unwrap_or(0);
    if max < 10 {
        return 1.0;
    }
    let early: Vec<f64> = xs
        .iter()
        .filter(|x| (1..=5).contains(&x.0))
        .map(|x| x.1)
        .collect();
    let late: Vec<f64> = xs.iter().filter(|x| x.0 + 5 > max).map(|x| x.1).collect();
    mean(&late) / mean(&early).max(1e-9)
}
