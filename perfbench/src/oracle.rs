//! Reference answers, computed by a route independent of the one timed.
//!
//! - NL questions: the sample's gold program, run by a `RecipeEditor` in a
//!   private environment holding copies of the spider tables.
//! - Recipes, phrase messages and incremental sessions: the whole program
//!   lowered to one DAG and executed once, as written (`optimize = false`),
//!   by a fresh executor with the shared cache switched off.
//!
//! Answers match when they are equal, or — for outputs whose float sums
//! may legitimately associate differently under another plan — when their
//! canonical renderings agree at nine significant digits.

use datachat::core::Platform;
use datachat::engine::{Table, Value};
use datachat::gel::{Recipe, RecipeEditor};
use datachat::nl::Nl2Code;
use datachat::skills::{Env, ExecPolicy, Executor, SkillCall, SkillOutput};

/// The expected answer of one message.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Must equal this output (up to float rounding).
    Output(SkillOutput),
    /// Must have these rows as an order-insensitive multiset, each row an
    /// order-insensitive multiset of cells (NL answers: column names and
    /// order are presentation, not the answer).
    Rows(Vec<Vec<String>>),
    /// The reference route failed; a successful reply cannot be right.
    Unavailable(String),
}

impl Expected {
    /// Whether a successful reply matches.
    pub fn matches(&self, got: &SkillOutput) -> bool {
        match self {
            Expected::Output(want) => {
                want == got || canonical_output(want) == canonical_output(got)
            }
            Expected::Rows(want) => got.as_table().is_some_and(|t| &multiset_rows(t) == want),
            Expected::Unavailable(_) => false,
        }
    }

    /// Short description for mismatch reports.
    pub fn describe(&self) -> String {
        let s = match self {
            Expected::Unavailable(why) => format!("no reference: {why}"),
            other => format!("{other:?}"),
        };
        s.chars().take(300).collect()
    }
}

/// Execute `steps` (with dataset names bound after the given step
/// indices) as one program, as written, and return every step's output.
pub fn one_shot(
    p: &Platform,
    steps: &[SkillCall],
    binds: &[(usize, String)],
) -> Vec<Result<SkillOutput, String>> {
    let mut recipe = Recipe::new();
    for call in steps {
        recipe.push(call.clone());
    }
    for (i, name) in binds {
        if let Err(e) = recipe.bind(*i, name.clone()) {
            return vec![Err(e.to_string()); steps.len()];
        }
    }
    let (dag, nodes) = match recipe.to_dag() {
        Ok(x) => x,
        Err(e) => return vec![Err(e.to_string()); steps.len()],
    };
    let policy = ExecPolicy {
        optimize: false,
        ..ExecPolicy::default()
    };
    let mut ex = Executor::new();
    p.env_handle().with(|env| {
        let shared = env.shared_cache.take();
        let out = nodes
            .iter()
            .map(|&node| match ex.run_resilient(&dag, node, env, &policy) {
                Ok(report) => {
                    let err = report.first_error().map(|e| e.to_string());
                    report
                        .output
                        .ok_or_else(|| err.unwrap_or_else(|| "no output".into()))
                }
                Err(e) => Err(e.to_string()),
            })
            .collect();
        env.shared_cache = shared;
        out
    })
}

/// Run an NL sample's gold program (Python-API text) in `env`.
pub fn gold_rows(program: &str, schema: &datachat::nl::SchemaHints, env: &mut Env) -> Expected {
    let mut run = || -> Result<Table, String> {
        let checked = datachat::nl::check(program, schema).map_err(|e| e.to_string())?;
        let recipe = Nl2Code::to_recipe(&checked).map_err(|e| e.to_string())?;
        let mut editor = RecipeEditor::new(recipe);
        editor.run(env).map_err(|e| e.to_string())?;
        editor
            .last_output()
            .and_then(|o| o.as_table().cloned())
            .ok_or_else(|| "gold program produced no table".to_string())
    };
    match run() {
        Ok(t) => Expected::Rows(multiset_rows(&t)),
        Err(e) => Expected::Unavailable(e),
    }
}

fn cell(v: &Value, precise: bool) -> String {
    match v.as_f64() {
        Some(f) if precise => format!("{f:.9e}"),
        // Int 5 and Float 5.0 answer the same question.
        Some(f) => format!("{f:.6}"),
        None => v.render(),
    }
}

/// Rows as a sorted multiset of sorted cells.
pub fn multiset_rows(t: &Table) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..t.num_rows())
        .map(|r| {
            let mut cells: Vec<String> =
                t.columns().iter().map(|c| cell(&c.get(r), false)).collect();
            cells.sort();
            cells
        })
        .collect();
    rows.sort();
    rows
}

/// Column names plus rows in order, floats at nine significant digits.
fn canonical_table(t: &Table) -> Vec<Vec<String>> {
    let mut out = vec![t.schema().names().iter().map(|s| s.to_string()).collect()];
    for r in 0..t.num_rows() {
        out.push(t.columns().iter().map(|c| cell(&c.get(r), true)).collect());
    }
    out
}

fn canonical_output(o: &SkillOutput) -> Vec<Vec<String>> {
    match o {
        SkillOutput::Table(t) => canonical_table(t),
        SkillOutput::Charts(charts) => {
            let mut out = Vec::new();
            for c in charts {
                let mut head = c.clone();
                head.data = Table::empty();
                out.push(vec![format!("{head:?}")]);
                out.extend(canonical_table(&c.data));
            }
            out
        }
        other => vec![vec![format!("{other:?}")]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datachat::engine::Column;

    #[test]
    fn float_rounding_is_tolerated_but_values_are_not() {
        let t = |x: f64| {
            SkillOutput::Table(Table::new(vec![("s", Column::from_floats(vec![x]))]).unwrap())
        };
        assert!(Expected::Output(t(0.1 + 0.2)).matches(&t(0.3)));
        assert!(!Expected::Output(t(0.3)).matches(&t(0.31)));
        assert!(!Expected::Unavailable("x".into()).matches(&t(0.3)));
    }

    #[test]
    fn nl_rows_ignore_names_and_order() {
        let a = Table::new(vec![
            (
                "k",
                Column::from_strs(vec!["a".to_string(), "b".to_string()]),
            ),
            ("n", Column::from_ints(vec![1, 2])),
        ])
        .unwrap();
        let b = Table::new(vec![
            ("count", Column::from_floats(vec![2.0, 1.0])),
            (
                "key",
                Column::from_strs(vec!["b".to_string(), "a".to_string()]),
            ),
        ])
        .unwrap();
        assert!(Expected::Rows(multiset_rows(&a)).matches(&SkillOutput::Table(b)));
    }
}
