//! The chat workloads: `chat_cold` and `session_growth`.
//!
//! A request is one `Platform::chat` message, from text to rendered
//! answer. Conversations are generated from the seed in fixed-size
//! chunks. Reference answers are computed outside the timed region, once
//! the chunk's replies are in, and only for messages that succeeded (a
//! failed message has nothing to check). The timed run sends messages
//! through `Platform::chat`; the traced run replays each message in the
//! order `Platform::chat` uses — translate, analyze, stage and execute
//! each step, render — timing the calls into each layer from here.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use datachat::collab::SessionRef;
use datachat::core::{Platform, SessionHandle};
use datachat::gel::{parse_gel, validate_recipe, Recipe};
use datachat::nl::{translate_visualize, Nl2Code, Zone};
use datachat::skills::{
    optimize_dag, plan_pushdown, ExecReport, NodeOutcome, ScanTally, SkillCall, SkillOutput,
};
use datachat::spider::{self, Sample};

use crate::oracle::{gold_rows, one_shot, Expected};
use crate::rng::{mix, Rng};
use crate::trace::{SpanId, Tracer};
use crate::world::{self, Sizes, MAIN_DB};

/// One chat message, with the UI naming action (`-- bind: x`) that
/// follows it, if any.
#[derive(Debug, Clone)]
pub struct Message {
    pub text: String,
    pub bind_after: Option<String>,
}

/// A fresh session's messages and how to compute their references.
#[derive(Debug, Clone)]
pub struct Conversation {
    pub label: String,
    pub msgs: Vec<Message>,
    /// For an NL question: its gold program and the schema it is
    /// checked against. `None`: the messages' own program, run as one.
    pub gold: Option<(String, datachat::nl::SchemaHints)>,
}

/// Workload shape, per scale.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub sizes: Sizes,
    /// NL questions per chunk (chat_cold).
    pub nl_per_chunk: usize,
    /// Recipe and Visualize conversations per chunk (chat_cold).
    pub recipes_per_chunk: usize,
    pub visualize_per_chunk: usize,
    /// Growth sessions per chunk and their message counts (session_growth).
    pub growth_lengths: &'static [usize],
    /// Chunks the traced run replays (a fixed amount of work, so its
    /// counters repeat exactly).
    pub trace_chunks: usize,
    /// Upper bound on chunks in a timed run.
    pub max_chunks: usize,
}

// ---------------------------------------------------------------------
// Request generation
// ---------------------------------------------------------------------

/// The example recipes, sent line by line.
const RECIPES: [(&str, &str); 5] = [
    (
        "at_fault_age",
        include_str!("../../examples/recipes/at_fault_age.gel"),
    ),
    (
        "join_collisions",
        include_str!("../../examples/recipes/join_collisions.gel"),
    ),
    (
        "price_bins",
        include_str!("../../examples/recipes/price_bins.gel"),
    ),
    (
        "regional_sales",
        include_str!("../../examples/recipes/regional_sales.gel"),
    ),
    (
        "successful_orders",
        include_str!("../../examples/recipes/successful_orders.gel"),
    ),
];

/// Recipe conversations cycle through the five recipes and one join that
/// names a catalog table directly. The last fails today with `dataset not
/// found` (the chat path never binds catalog tables as datasets); it is
/// kept so the fix shows as a drop in failures.
const RECIPE_KINDS: usize = RECIPES.len() + 1;

/// Recipe text for conversation `k`: the verbatim file on even passes
/// through the kinds, a seeded-literal variant on odd ones.
fn recipe_text(k: usize, rng: &mut Rng) -> (String, String) {
    let kind = k % RECIPE_KINDS;
    let variant = (k / RECIPE_KINDS) % 2 == 1;
    if kind == RECIPES.len() {
        let age = rng.range(16, 60);
        let text = format!(
            "Load the table parties from the database {MAIN_DB}\n\
             Keep the rows where party_age >= {age}\n\
             Join with the dataset collisions on case_id\n\
             Keep the columns case_id, party_age, collision_severity\n"
        );
        return ("catalog_join".into(), text);
    }
    let (name, text) = RECIPES[kind];
    if !variant {
        return (name.into(), text.to_string());
    }
    let text = match name {
        "at_fault_age" => text.replace(
            "at_fault = 1",
            &format!("at_fault = 1 and party_age >= {}", rng.range(16, 60)),
        ),
        "join_collisions" => text.replace(
            "Keep the columns",
            &format!(
                "Keep the rows where party_age >= {}\nKeep the columns",
                rng.range(16, 60)
            ),
        ),
        "price_bins" => text.replace("width 20", &format!("width {}", rng.range(5, 60))),
        "regional_sales" => text.replace(
            "price * quantity",
            &format!(
                "price * quantity * {}.{:02}",
                rng.range(0, 3),
                rng.range(0, 100)
            ),
        ),
        _ => text.replace(
            "'Successful'",
            &format!("'Successful' and price > {}", rng.range(5, 150)),
        ),
    };
    (format!("{name}~"), text)
}

/// Parse recipe text into messages: one per GEL line, `-- bind: x`
/// attached to the message before it, other comments dropped.
fn recipe_messages(text: &str) -> Vec<Message> {
    let mut msgs: Vec<Message> = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        if let Some(name) = line.strip_prefix("-- bind:") {
            if let Some(last) = msgs.last_mut() {
                last.bind_after = Some(name.trim().to_string());
            }
        } else if !line.starts_with("--") {
            msgs.push(Message {
                text: line.to_string(),
                bind_after: None,
            });
        }
    }
    msgs
}

/// Visualize conversations, cycled in order: (table, KPI, grouping,
/// filter phrase).
const VISUALIZE: [(&str, &str, &str, &str); 4] = [
    ("parties", "party_age", "party_type", "female parties"),
    ("sales", "price", "region", "successful orders"),
    ("parties", "at_fault", "party_sobriety", "sober parties"),
    ("sales", "quantity", "product", "bulk orders"),
];

/// `Visualize <kpi> by <group> where <phrase>` after a load.
fn visualize_messages(k: usize) -> Vec<Message> {
    let (table, kpi, group, phrase) = VISUALIZE[k % VISUALIZE.len()];
    vec![
        Message {
            text: format!("Load the table {table} from the database {MAIN_DB}"),
            bind_after: None,
        },
        Message {
            text: format!("Visualize {kpi} by {group} where {phrase}"),
            bind_after: None,
        },
    ]
}

/// One incremental session of `len` one-step messages over `sales`: a
/// run of filters, then a derived column, a column keep and a filter on
/// the derived column, closed by an aggregate. The step pattern is fixed;
/// the seed picks the literals. Every filter keeps most rows, so the
/// session never runs dry.
pub fn growth_messages(len: usize, rng: &mut Rng) -> Vec<Message> {
    assert!(len >= 5, "a growth session has at least five messages");
    let mut lines = vec![format!("Load the table sales from the database {MAIN_DB}")];
    for i in 1..len - 4 {
        lines.push(match i % 3 {
            0 => format!(
                "Keep the rows where price > {}.{:02}",
                rng.range(5, 8),
                rng.range(0, 100)
            ),
            1 => format!("Keep the rows where quantity >= {}", rng.range(1, 3)),
            _ => format!("Keep the rows where discount < 0.{:02}", rng.range(27, 31)),
        });
    }
    let factor = format!("{}.{:02}", rng.range(1, 3), rng.range(0, 100));
    lines.push(format!("Create a new column net as price * {factor}"));
    lines.push("Keep the columns region, product, price, quantity, net".into());
    lines.push(format!("Keep the rows where net > {}", rng.range(5, 10)));
    lines.push("Compute the sum of net and the average of quantity for each region".into());
    lines
        .into_iter()
        .map(|text| Message {
            text,
            bind_after: None,
        })
        .collect()
}

/// Rewrite a message's calls the way `Platform::chat` does: a
/// `UseDataset` naming a catalog table becomes a load of that table.
fn rewrite_use_dataset(p: &Platform, call: SkillCall) -> SkillCall {
    let SkillCall::UseDataset { name, version } = call else {
        return call;
    };
    let found = p.env(|env| {
        env.catalog.database_names().iter().find_map(|db| {
            let d = env.catalog.database(db).ok()?;
            let t = d
                .table_names()
                .into_iter()
                .find(|t| t.eq_ignore_ascii_case(&name))?;
            Some((db.to_string(), t.to_string()))
        })
    });
    match found {
        Some((database, table)) => SkillCall::LoadTable { database, table },
        None => SkillCall::UseDataset { name, version },
    }
}

/// Reference answers for conversations made of GEL and phrase messages:
/// the calls each message translates to, run as one program, as written.
fn program_references(p: &Platform, msgs: &[Message]) -> Vec<Expected> {
    let mut steps: Vec<SkillCall> = Vec::new();
    let mut binds: Vec<(usize, String)> = Vec::new();
    let mut last_step: Vec<Option<usize>> = Vec::new();
    for m in msgs {
        let calls = match parse_gel(&m.text) {
            Ok(call) => vec![call],
            Err(_) => translate_visualize(&m.text, &p.nl.semantics, &p.schema_hints())
                .map(|t| t.calls)
                .unwrap_or_default(),
        };
        steps.extend(calls.into_iter().map(|c| rewrite_use_dataset(p, c)));
        last_step.push(steps.len().checked_sub(1));
        if let (Some(name), Some(i)) = (&m.bind_after, steps.len().checked_sub(1)) {
            binds.push((i, name.clone()));
        }
    }
    let outs = one_shot(p, &steps, &binds);
    last_step
        .into_iter()
        .map(|i| match i.and_then(|i| outs.get(i)) {
            Some(Ok(out)) => Expected::Output(out.clone()),
            Some(Err(e)) => Expected::Unavailable(e.clone()),
            None => Expected::Unavailable("message translates to no step".into()),
        })
        .collect()
}

/// Program conversations whose references are kept for reuse.
const REFERENCE_MEMO: usize = 16;

/// The seeded request stream of one workload.
pub struct Stream {
    pub workload: &'static str,
    pub shape: Shape,
    seed: u64,
    nl_pool: BTreeMap<(&'static str, &'static str), VecDeque<Sample>>,
    /// References of program conversations, by message text.
    references: BTreeMap<String, Vec<Expected>>,
    nl_blocks: u64,
    gold: datachat::skills::Env,
}

impl Stream {
    /// `gold` is the environment NL gold programs run in
    /// ([`world::gold_env`]).
    pub fn new(
        workload: &'static str,
        shape: Shape,
        seed: u64,
        gold: datachat::skills::Env,
    ) -> Stream {
        Stream {
            workload,
            shape,
            seed,
            nl_pool: BTreeMap::new(),
            references: BTreeMap::new(),
            nl_blocks: 0,
            gold,
        }
    }

    /// The next NL sample of `zone` about `domain` from the stream:
    /// stratified `t_spider` blocks, one block per derived seed, drawn by
    /// zone and domain so every chunk asks the same mix.
    fn nl_sample(&mut self, zone: Zone, domain: &'static str) -> Sample {
        loop {
            let key = (zone.label(), domain);
            if let Some(sample) = self.nl_pool.get_mut(&key).and_then(|q| q.pop_front()) {
                return sample;
            }
            let block = spider::t_spider(mix(self.seed, 0x7a11 + self.nl_blocks));
            self.nl_blocks += 1;
            for sample in block {
                if let Some(d) = world::NL_DOMAINS.iter().find(|d| **d == sample.domain) {
                    self.nl_pool
                        .entry((sample.zone.label(), *d))
                        .or_default()
                        .push_back(sample);
                }
            }
        }
    }

    /// Conversations of chunk `c`.
    pub fn chunk(&mut self, c: u64) -> Vec<Conversation> {
        let mut rng = Rng::new(mix(self.seed, c));
        let s = self.shape;
        let mut out = Vec::new();
        if self.workload == "session_growth" {
            for &len in s.growth_lengths {
                out.push(Conversation {
                    label: format!("growth/{len}"),
                    msgs: growth_messages(len, &mut rng),
                    gold: None,
                });
            }
            return out;
        }
        for j in 0..s.nl_per_chunk {
            let zones = Zone::all();
            let zone = zones[j % zones.len()];
            let domain =
                world::NL_DOMAINS[(j / zones.len() + c as usize) % world::NL_DOMAINS.len()];
            let sample = self.nl_sample(zone, domain);
            out.push(Conversation {
                label: format!("nl/{}", sample.zone.label()),
                msgs: vec![Message {
                    text: sample.question,
                    bind_after: None,
                }],
                gold: Some((sample.gold_program, sample.schema)),
            });
        }
        for j in 0..s.recipes_per_chunk {
            let k = c as usize * s.recipes_per_chunk + j;
            let (name, text) = recipe_text(k, &mut rng);
            out.push(Conversation {
                label: format!("recipe/{name}"),
                msgs: recipe_messages(&text),
                gold: None,
            });
        }
        for j in 0..s.visualize_per_chunk {
            let k = c as usize * s.visualize_per_chunk + j;
            out.push(Conversation {
                label: "visualize".into(),
                msgs: visualize_messages(k),
                gold: None,
            });
        }
        out
    }

    /// Check a conversation's successful answers against references
    /// computed by an independent route, marking mismatches. Runs with
    /// the shared cache off, outside any timed region.
    pub fn check(
        &mut self,
        p: &Platform,
        conv: &Conversation,
        answers: &[Option<SkillOutput>],
        records: &mut [MsgRecord],
    ) {
        if answers.iter().all(Option::is_none) {
            return;
        }
        let expected = match &conv.gold {
            Some((program, schema)) => vec![gold_rows(program, schema, &mut self.gold)],
            None => {
                // Conversations repeat across chunks (verbatim recipes,
                // the Visualize cycle); their references do not change.
                let key: Vec<&str> = conv.msgs.iter().map(|m| m.text.as_str()).collect();
                let key = key.join("\n");
                if !self.references.contains_key(&key) {
                    // Seeded variants never repeat; keep the memo small.
                    if self.references.len() >= REFERENCE_MEMO {
                        self.references.clear();
                    }
                    let refs = program_references(p, &conv.msgs);
                    self.references.insert(key.clone(), refs);
                }
                self.references[&key].clone()
            }
        };
        for (step, (answer, record)) in answers.iter().zip(records.iter_mut()).enumerate() {
            let (Some(got), Some(want)) = (answer, expected.get(step)) else {
                continue;
            };
            if !want.matches(got) {
                record.mismatch = true;
                eprintln!(
                    "MISMATCH in {} step {step}: {:?}\n  got: {}\n  expected: {}",
                    conv.label,
                    conv.msgs[step].text,
                    short(got),
                    want.describe()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------

/// Render an answer the way the chat UI shows it.
pub fn render(out: &SkillOutput) -> usize {
    match out {
        SkillOutput::Table(t) => t.render(20).len(),
        SkillOutput::Charts(charts) => charts
            .iter()
            .map(|c| datachat::viz::render_ascii(c, 80).map_or(0, |s| s.len()))
            .sum(),
        SkillOutput::Text(s) => s.len(),
        other => format!("{other:?}").len(),
    }
}

/// What one message did.
#[derive(Debug, Clone)]
pub struct MsgRecord {
    /// Conversation label, e.g. `nl/low-M,low-C` or `recipe/price_bins`.
    pub label: String,
    /// Typed error text of a failed message.
    pub error: Option<String>,
    pub last_in_conv: bool,
    pub latency_ms: f64,
    pub failed: bool,
    pub mismatch: bool,
    pub scanned: u64,
    pub pruned: u64,
}

/// Exact counters of a fixed replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub scanned: u64,
    pub pruned: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub checkpoint_bytes: u64,
}

/// Per-step layer observations of the traced run.
#[derive(Debug, Default)]
pub struct LayerObs {
    pub prompt_tokens: Vec<f64>,
    /// (step index within its conversation, DAG nodes the optimizer saw).
    pub dag_nodes: Vec<(usize, f64)>,
    /// (step index, exec wall ms).
    pub exec_ms: Vec<(usize, f64)>,
    pub nodes_executed: u64,
    pub nodes_cached: u64,
    pub skill_ms: BTreeMap<String, Vec<f64>>,
    pub spill_bytes: u64,
    /// Messages at least one of whose steps spilled.
    pub spilled_reqs: u64,
    /// The current message's (step index, exec ms, report), read by
    /// [`LayerObs::flush`] once the request's span has closed, so the
    /// benchmark's bookkeeping stays out of the request's wall time.
    pending: Vec<(usize, f64, ExecReport)>,
}

impl LayerObs {
    /// Record the execution reports of the message just traced.
    fn flush(&mut self) {
        let mut spilled = false;
        // Drained in place, so the buffer keeps its capacity and the next
        // request's push does not allocate.
        let mut pending = std::mem::take(&mut self.pending);
        for (step, ms, report) in pending.drain(..) {
            self.exec_ms.push((step, ms));
            self.spill_bytes += report.bytes_spilled;
            spilled |= report.bytes_spilled > 0;
            for n in &report.nodes {
                match n.outcome {
                    NodeOutcome::Ok => {
                        self.nodes_executed += 1;
                        self.skill_ms
                            .entry(n.skill.clone())
                            .or_default()
                            .push(n.wall.as_secs_f64() * 1e3);
                    }
                    NodeOutcome::CacheHit => self.nodes_cached += 1,
                    _ => {}
                }
            }
        }
        self.spilled_reqs += spilled as u64;
        self.pending = pending;
    }
}

fn scan_tally(p: &Platform) -> ScanTally {
    p.env(|env| env.scan_tally)
}

/// The outcome of one message: its answer or a typed error's text.
type Answer = Result<SkillOutput, String>;

/// One conversation's outcome.
pub struct ConvRun {
    pub records: Vec<MsgRecord>,
    /// Successful answers, per message sent.
    pub answers: Vec<Option<SkillOutput>>,
    /// The session's checkpointed bytes when the conversation ended.
    pub checkpoint_bytes: u64,
}

/// Send one conversation in a fresh session. With a tracer the messages
/// are replayed layer by layer; without one they go through
/// `Platform::chat`.
pub fn run_conversation(
    p: &mut Platform,
    conv: &Conversation,
    mut tracing: Option<(&mut Tracer, &mut LayerObs, &mut u64)>,
) -> ConvRun {
    let h = p.open_session("analyst");
    let mut records = Vec::with_capacity(conv.msgs.len());
    let mut answers = Vec::with_capacity(conv.msgs.len());
    for (step, msg) in conv.msgs.iter().enumerate() {
        let before = scan_tally(p);
        let t0 = Instant::now();
        let answer: Answer = match tracing.as_mut() {
            None => p
                .chat(&h, &msg.text)
                .map(|reply| {
                    std::hint::black_box(render(&reply.output));
                    reply.output
                })
                .map_err(|e| e.to_string()),
            Some((tracer, obs, next_req)) => {
                let req = **next_req;
                **next_req += 1;
                traced_message(p, &h, &msg.text, step, req, tracer, obs)
            }
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let delta = scan_tally(p).delta_since(before);
        let failed = answer.is_err();
        records.push(MsgRecord {
            label: conv.label.clone(),
            error: answer.as_ref().err().cloned(),
            last_in_conv: step + 1 == conv.msgs.len(),
            latency_ms,
            failed,
            mismatch: false,
            scanned: delta.bytes_scanned,
            pruned: delta.bytes_pruned,
        });
        answers.push(answer.ok());
        if failed {
            // A user stops a conversation at its first error.
            break;
        }
        if let Some(name) = &msg.bind_after {
            h.session
                .name_current(name.clone())
                .expect("a successful step leaves a current dataset");
        }
    }
    // The platform has no call to close a session, and its registry keeps
    // every session (and its executor's checkpointed results) alive. The
    // user is done with this conversation, so its checkpoints are dropped
    // here; otherwise each finished conversation keeps tens of MB resident.
    let checkpoint_bytes = h.session.checkpoint_bytes();
    h.session.clear_checkpoints();
    ConvRun {
        records,
        answers,
        checkpoint_bytes,
    }
}

fn short(o: &SkillOutput) -> String {
    format!("{o:?}").chars().take(300).collect()
}

/// `Platform::chat`, replayed layer by layer with a span around each call.
fn traced_message(
    p: &mut Platform,
    h: &SessionHandle,
    text: &str,
    step: usize,
    req: u64,
    tr: &mut Tracer,
    obs: &mut LayerObs,
) -> Answer {
    let root = tr.begin(req, None, "request");
    let out = traced_message_inner(p, h, text, step, req, root, tr, obs);
    tr.end(root);
    obs.flush();
    out
}

#[allow(clippy::too_many_arguments)]
fn traced_message_inner(
    p: &mut Platform,
    h: &SessionHandle,
    text: &str,
    step: usize,
    req: u64,
    root: SpanId,
    tr: &mut Tracer,
    obs: &mut LayerObs,
) -> Answer {
    let r = Some(root);
    // 1. Direct GEL, 2. the phrase layer, 3. the LLM pipeline.
    let parsed = tr.span(req, r, "gel.parse", || parse_gel(text));
    let calls = match parsed {
        Ok(call) => vec![call],
        Err(_) => {
            let s = tr.begin(req, r, "nl.translate");
            let translated = (|| -> Answer2 {
                let schema = p.schema_hints();
                if text.trim().to_lowercase().starts_with("visualize") {
                    if let Ok(t) = translate_visualize(text, &p.nl.semantics, &schema) {
                        return Ok(t.calls);
                    }
                }
                let result = p.nl.generate(text, &schema).map_err(|e| e.to_string())?;
                obs.prompt_tokens.push(result.prompt.token_count() as f64);
                let recipe = Nl2Code::to_recipe(&result.checked).map_err(|e| e.to_string())?;
                Ok(recipe.steps().to_vec())
            })();
            tr.end(s);
            translated?
        }
    };
    // The platform's own routing glue: dataset rewrites and the policy.
    let (calls, policy) = tr.span(req, r, "chat.route", || {
        let calls: Vec<SkillCall> = calls
            .into_iter()
            .map(|c| rewrite_use_dataset(p, c))
            .collect();
        (calls, h.session.exec_policy().unwrap_or_default())
    });
    // Preflight analysis, skipped for programs continuing session state.
    if calls.first().is_some_and(|c| !c.needs_input()) {
        tr.span(req, r, "analyze.preflight", || {
            let mut recipe = Recipe::new();
            for call in &calls {
                recipe.push(call.clone());
            }
            std::hint::black_box(validate_recipe(&recipe, &p.analysis_context()));
        });
    }
    let mut last = None;
    for call in calls {
        let node = tr
            .span(req, r, "session.stage", || h.session.stage(&h.user, call))
            .map_err(|e| e.to_string())?;
        optimize_probe(p, &h.session, node, step, req, r, tr, obs);
        let env = p.env_handle();
        let s = tr.begin(req, r, "exec");
        let report = env.with(|env| h.session.execute_staged(&h.user, node, env, &policy));
        tr.end(s);
        let mut report = report.map_err(|e| e.to_string())?;
        let dur = tr.spans()[s].dur_ns() as f64 / 1e6;
        let output = report.output.take();
        let err = match output {
            Some(_) => None,
            None => report.first_error().map(|e| e.to_string()),
        };
        obs.pending.push((step, dur, report));
        last = Some(
            output.ok_or_else(|| err.unwrap_or_else(|| "execution produced no output".into()))?,
        );
    }
    let out = last.ok_or_else(|| "empty program".to_string())?;
    tr.span(req, r, "viz.render", || std::hint::black_box(render(&out)));
    Ok(out)
}

type Answer2 = Result<Vec<SkillCall>, String>;

/// Re-run the optimizer and scan pushdown on the session DAG for the new
/// target, as the executor does before each run. A probe: the same work
/// also happens inside `exec`.
#[allow(clippy::too_many_arguments)]
fn optimize_probe(
    p: &Platform,
    session: &SessionRef,
    node: usize,
    step: usize,
    req: u64,
    parent: Option<SpanId>,
    tr: &mut Tracer,
    obs: &mut LayerObs,
) {
    tr.span(req, parent, "optimize", || {
        let dag = session.dag_snapshot();
        obs.dag_nodes.push((step, dag.len() as f64));
        p.env(|env| {
            let optimized = optimize_dag(&dag, &[node], &[], env);
            let planned = plan_pushdown(optimized.as_ref().unwrap_or(&dag), &[node], &[]);
            std::hint::black_box((optimized.is_some(), planned.is_some()));
        })
    });
}
