//! The benchmark's world: generated tables and the platform built on them.
//!
//! Data generation (the seeded demo and spider-domain tables) is the
//! benchmark's own work and is not timed. Building the platform — the
//! platform itself, its NL2Code stack, and ingesting every table into
//! catalog blocks with zone maps and dictionaries — is what `setup_s`
//! measures.

use std::time::Instant;

use datachat::core::Platform;
use datachat::engine::Table;
use datachat::nl::SimulatedLlm;
use datachat::skills::Env;
use datachat::spider;
use datachat::storage::{demo, CloudDatabase, Pricing};

/// Catalog database holding the demo tables.
pub const MAIN_DB: &str = "MainDatabase";
/// Catalog database holding the spider-domain tables.
pub const SPIDER_DB: &str = "SpiderDatabase";

/// Spider domains whose tables join the catalog and whose questions are
/// asked. The `sales` domain is left out: its `orders` table repeats the
/// demo `sales` table's columns, so under a whole-catalog schema its
/// questions do not say which table they mean and have no single right
/// answer to check.
pub const NL_DOMAINS: [&str; 2] = ["finance", "healthcare"];

/// Phrase definitions for `Visualize ... where <phrase>` messages:
/// (phrase, predicate).
pub const PHRASES: [(&str, &str); 4] = [
    ("female parties", "party_sex = 'female'"),
    ("sober parties", "party_sobriety = 'had not been drinking'"),
    ("successful orders", "PurchaseStatus = 'Successful'"),
    ("bulk orders", "quantity >= 10"),
];

/// Row counts of the generated tables.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Collisions in the Figure 1 demo (parties and victims scale with it).
    pub collisions: usize,
    /// Rows of the `sales` demo table.
    pub sales: usize,
    /// Rows of each spider-domain table (0 = no spider tables).
    pub spider_rows: usize,
}

/// Generated tables, per catalog database.
#[derive(Debug)]
pub struct Data {
    pub main: Vec<(String, Table)>,
    pub spider: Vec<(String, Table)>,
}

pub fn generate(sizes: Sizes, seed: u64) -> Data {
    let mut main = Vec::new();
    if sizes.collisions > 0 {
        let (collisions, parties, victims) = demo::california_collisions(sizes.collisions, seed);
        main.push(("collisions".to_string(), collisions));
        main.push(("parties".to_string(), parties));
        main.push(("victims".to_string(), victims));
    }
    if sizes.sales > 0 {
        main.push(("sales".to_string(), demo::sales(sizes.sales, seed ^ 0x5a1e)));
    }
    let spider_seed = seed ^ 0x5b1d;
    let mut spider = Vec::new();
    if sizes.spider_rows > 0 {
        for domain in spider::spider_domains() {
            if NL_DOMAINS.contains(&domain.name) {
                spider.extend(domain.make_tables(sizes.spider_rows, spider_seed));
            }
        }
    }
    Data { main, spider }
}

/// Build the platform over `data`: the setup a deployment pays once.
/// The NL stack is the spider evaluation system with an error-free
/// model, so every NL answer can be checked against its gold program.
pub fn build_platform(data: &Data, seed: u64) -> Platform {
    let mut p = Platform::new();
    let mut nl = spider::spider_system(seed);
    nl.model = Box::new(SimulatedLlm::oracle());
    for (phrase, predicate) in PHRASES {
        nl.semantics.define_phrase(phrase, predicate);
    }
    p.nl = nl;
    for (db_name, tables) in [(MAIN_DB, &data.main), (SPIDER_DB, &data.spider)] {
        if tables.is_empty() {
            continue;
        }
        let mut db = CloudDatabase::new(db_name, Pricing::default_cloud());
        for (name, table) in tables {
            db.create_table(name.as_str(), table)
                .expect("generated table names are unique");
        }
        p.add_database(db).expect("database names are unique");
    }
    p
}

/// Fewest set-ups per timed run.
const SETUP_MIN_BUILDS: usize = 5;
/// Set-ups continue until they have taken this long in total, so cheap
/// set-ups are repeated often enough for a steady median.
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_BUILDS: usize = 200;

/// Run `build` repeatedly and keep the last result; returns it with every
/// build's wall time in seconds (`setup_s` is their median). Each earlier
/// result is dropped before the next build starts, so peak memory holds
/// one. With `once`, builds exactly once.
pub fn repeat_setup<T>(once: bool, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
        let enough =
            secs.len() >= SETUP_MIN_BUILDS && secs.iter().sum::<f64>() >= SETUP_MIN_SECONDS;
        if once || enough || secs.len() >= SETUP_MAX_BUILDS {
            return (last.expect("at least one build"), secs);
        }
    }
}

/// A private environment holding the spider tables as saved datasets —
/// the world NL gold programs run in, independent of the platform.
pub fn gold_env(spider: Vec<(String, Table)>) -> Env {
    let mut env = Env::new();
    for (name, table) in spider {
        env.save_table(name.as_str(), table);
    }
    env
}
