//! The TKDQL differential harness: every statement form must be
//! **bit-identical** — same entries, same scores, same tie order — to the
//! hand-constructed `TkdQuery` / `tkd_core::variants` calls it compiles
//! to, across synthetic datasets × missing rates {0.1, 0.3, 0.6} × all
//! five algorithms × subspaces × constraints × an edge-heavy k set
//! ({0, 1, n−1, n, n+5}). The same discipline as the parallel, dynamic,
//! persistence, and serving subsystems: the language is a surface over
//! existing engines and may not change a single answer.
//!
//! A second leg pins the planner's promise that `EXPLAIN` and execution
//! make *one* algorithm decision, and a third runs the engine target
//! (`run_on_engine`) against snapshot-plus-remap oracles.

use tkdi::core::{variants, Algorithm, DynamicEngine, EngineQuery, TkdQuery, TkdResult};
use tkdi::data::synthetic::{generate, Distribution, SyntheticConfig};
use tkdi::model::{Dataset, ObjectId};
use tkdi::ql::{self, Outcome};
use tkdi::skyline::constrained::Constraints;

const MISSING_RATES: [f64; 3] = [0.1, 0.3, 0.6];
const ALL_ALGOS: [(&str, Algorithm); 5] = [
    ("NAIVE", Algorithm::Naive),
    ("ESB", Algorithm::Esb),
    ("UBB", Algorithm::Ubb),
    ("BIG", Algorithm::Big),
    ("IBIG", Algorithm::Ibig),
];

fn workload(missing: f64, seed: u64) -> Dataset {
    generate(&SyntheticConfig {
        n: 160,
        dims: 4,
        cardinality: 8,
        missing_rate: missing,
        distribution: Distribution::Independent,
        seed,
    })
}

fn k_edges(n: usize) -> [usize; 5] {
    [0, 1, n.saturating_sub(1), n, n + 5]
}

fn run_stmt(text: &str, ds: &Dataset) -> TkdResult {
    let plan = ql::compile(text, ds.dims()).unwrap_or_else(|e| panic!("{text}: {e}"));
    match ql::run_on_dataset(&plan, ds).unwrap_or_else(|e| panic!("{text}: {e}")) {
        Outcome::Rows(r) => r,
        other => panic!("{text}: expected rows, got {other:?}"),
    }
}

/// Entries AND order — `TkdResult::entries()` is (id, score) in rank
/// order, so equality is the full bit-identity claim.
fn assert_same(text: &str, got: &TkdResult, want: &TkdResult, tag: &str) {
    assert_eq!(got.entries(), want.entries(), "{tag}: `{text}`");
}

#[test]
fn plain_select_matches_tkdquery_across_the_grid() {
    for (i, &missing) in MISSING_RATES.iter().enumerate() {
        let ds = workload(missing, 900 + i as u64);
        let n = ds.len();
        for (name, alg) in ALL_ALGOS {
            for k in k_edges(n) {
                let text = format!("SELECT TOP {k} DOMINATING USING {name}");
                let got = run_stmt(&text, &ds);
                let want = TkdQuery::new(k).algorithm(alg).run(&ds);
                assert_same(&text, &got, &want, &format!("σ={missing} {name} k={k}"));
            }
        }
    }
}

#[test]
fn subspace_matches_the_subspace_variant() {
    for (i, &missing) in MISSING_RATES.iter().enumerate() {
        let ds = workload(missing, 910 + i as u64);
        for (dims_sql, dims_idx) in [
            ("(d1, d3)", vec![0usize, 2]),
            ("(d2)", vec![1]),
            ("(d1, d2, d3, d4)", vec![0, 1, 2, 3]),
        ] {
            for (name, alg) in [
                ("UBB", Algorithm::Ubb),
                ("BIG", Algorithm::Big),
                ("IBIG", Algorithm::Ibig),
            ] {
                let text = format!("SELECT TOP 7 DOMINATING SUBSPACE {dims_sql} USING {name}");
                let got = run_stmt(&text, &ds);
                let want =
                    variants::subspace_top_k(&ds, &dims_idx, &TkdQuery::new(7).algorithm(alg))
                        .expect("valid subspace");
                assert_same(&text, &got, &want, &format!("σ={missing} {dims_sql}"));
            }
        }
    }
}

#[test]
fn where_matches_the_constrained_variant() {
    // Values are integers in [0, 8); the predicates cut real subsets.
    for (i, &missing) in MISSING_RATES.iter().enumerate() {
        let ds = workload(missing, 920 + i as u64);
        let cases: Vec<(String, Constraints)> = vec![
            (
                "WHERE d2 BETWEEN 2 AND 5".into(),
                Constraints::none(4).with_interval(1, 2.0, 5.0),
            ),
            (
                "WHERE d1 <= 4 AND d4 >= 3".into(),
                Constraints::none(4)
                    .with_interval(0, f64::NEG_INFINITY, 4.0)
                    .with_interval(3, 3.0, f64::INFINITY),
            ),
            (
                // Strict bounds compile onto next_up/next_down — the
                // oracle states the same inclusive range by hand.
                "WHERE d3 > 2 AND d3 < 6".into(),
                Constraints::none(4).with_interval(2, 2.0_f64.next_up(), 6.0_f64.next_down()),
            ),
            (
                // Arithmetic folds at plan time: 2 * 3 - 1 = 5.
                "WHERE d1 = 2 * 3 - 1".into(),
                Constraints::none(4).with_interval(0, 5.0, 5.0),
            ),
            (
                // Contradiction: admits only the objects missing d2.
                "WHERE d2 > 7 AND d2 < 1".into(),
                Constraints::none(4).with_interval(1, 7.0_f64.next_up(), 1.0_f64.next_down()),
            ),
        ];
        for (clause, c) in &cases {
            for (name, alg) in [
                ("NAIVE", Algorithm::Naive),
                ("ESB", Algorithm::Esb),
                ("BIG", Algorithm::Big),
            ] {
                let text = format!("SELECT TOP 9 DOMINATING {clause} USING {name}");
                let got = run_stmt(&text, &ds);
                let want = variants::constrained_top_k(&ds, c, &TkdQuery::new(9).algorithm(alg));
                assert_same(&text, &got, &want, &format!("σ={missing}"));
            }
        }
    }
}

#[test]
fn where_plus_subspace_matches_the_hand_composition() {
    for (i, &missing) in MISSING_RATES.iter().enumerate() {
        let ds = workload(missing, 930 + i as u64);
        let text = "SELECT TOP 6 DOMINATING SUBSPACE (d1, d4) WHERE d2 <= 5 USING BIG";
        let got = run_stmt(text, &ds);
        // Hand composition, exactly as variants users write it: admit on
        // the full space, select, project, remap through both mappings.
        let c = Constraints::none(4).with_interval(1, f64::NEG_INFINITY, 5.0);
        let admitted = c.admitted(&ds);
        let selected = ds.select(&admitted);
        let inner = variants::subspace_top_k(
            &selected,
            &[0, 3],
            &TkdQuery::new(6).algorithm(Algorithm::Big),
        )
        .expect("valid subspace");
        let want = variants::remap(inner, &admitted);
        assert_same(text, &got, &want, &format!("σ={missing}"));
    }
}

#[test]
fn bins_do_not_change_answers() {
    for (i, &missing) in MISSING_RATES.iter().enumerate() {
        let ds = workload(missing, 940 + i as u64);
        let ibig = run_stmt("SELECT TOP 8 DOMINATING USING IBIG", &ds);
        for bins in [2usize, 5, 16] {
            let binned = run_stmt(
                &format!("SELECT TOP 8 DOMINATING USING IBIG WITH BINS {bins}"),
                &ds,
            );
            assert_eq!(binned.entries(), ibig.entries(), "σ={missing} bins={bins}");
        }
    }
}

/// The one-decision promise: whatever algorithm `EXPLAIN` prints for an
/// Auto statement, running the same statement with that algorithm forced
/// via `USING` returns the same entries as the Auto run.
#[test]
fn explain_algorithm_is_the_executed_algorithm() {
    for (i, &missing) in MISSING_RATES.iter().enumerate() {
        let ds = workload(missing, 950 + i as u64);
        for stmt in [
            "SELECT TOP 5 DOMINATING".to_string(),
            "SELECT TOP 5 DOMINATING WHERE d1 <= 3".to_string(),
            "SELECT TOP 5 DOMINATING SUBSPACE (d2, d3)".to_string(),
        ] {
            let plan = ql::compile(&format!("EXPLAIN {stmt}"), ds.dims()).unwrap();
            let rendered = match ql::run_on_dataset(&plan, &ds).unwrap() {
                Outcome::Explain(s) => s,
                other => panic!("{stmt}: {other:?}"),
            };
            let algo_line = rendered
                .lines()
                .find(|l| l.trim_start().starts_with("algorithm:"))
                .unwrap_or_else(|| panic!("{stmt}: no algorithm line in\n{rendered}"));
            let (name, _) = ALL_ALGOS
                .iter()
                .find(|(n, a)| algo_line.contains(&format!("{a:?}")) && !n.is_empty())
                .unwrap_or_else(|| panic!("{stmt}: unrecognized line {algo_line}"));
            let auto = run_stmt(&stmt, &ds);
            let forced = run_stmt(&format!("{stmt} USING {name}"), &ds);
            assert_eq!(auto.entries(), forced.entries(), "σ={missing} `{stmt}`");
        }
    }
}

#[test]
fn engine_target_matches_snapshot_oracles() {
    for (i, &missing) in MISSING_RATES.iter().enumerate() {
        let ds = workload(missing, 960 + i as u64);
        let mut engine = DynamicEngine::new(ds.clone());
        // Make the engine's id space diverge from the dataset's: delete a
        // few rows so remapping through live_ids() actually matters.
        for id in [3u32, 40, 77] {
            engine.delete(id).expect("live id");
        }
        let snap = engine.snapshot();
        let live = engine.live_ids();
        for (name, alg) in [("BIG", Algorithm::Big), ("IBIG", Algorithm::Ibig)] {
            for k in [0usize, 1, 9, snap.len(), snap.len() + 5] {
                // Unscoped: the maintained index must answer exactly like
                // the in-process engine query API.
                let text = format!("SELECT TOP {k} DOMINATING USING {name}");
                let plan = ql::compile(&text, engine.dims()).unwrap();
                let got = match ql::run_on_engine(&plan, &mut engine).unwrap() {
                    Outcome::Rows(r) => r,
                    other => panic!("{text}: {other:?}"),
                };
                let want = engine.query(&EngineQuery::new(k).algorithm(alg)).unwrap();
                assert_eq!(got.entries(), want.entries(), "σ={missing} `{text}`");
            }
            // Scoped: snapshot + variants + live-id translation.
            let text =
                format!("SELECT TOP 6 DOMINATING SUBSPACE (d1, d3) WHERE d2 <= 5 USING {name}");
            let plan = ql::compile(&text, engine.dims()).unwrap();
            let got = match ql::run_on_engine(&plan, &mut engine).unwrap() {
                Outcome::Rows(r) => r,
                other => panic!("{text}: {other:?}"),
            };
            let c = Constraints::none(4).with_interval(1, f64::NEG_INFINITY, 5.0);
            let admitted = c.admitted(&snap);
            let selected = snap.select(&admitted);
            let inner =
                variants::subspace_top_k(&selected, &[0, 2], &TkdQuery::new(6).algorithm(alg))
                    .expect("valid subspace");
            let snapshot_ids = variants::remap(inner, &admitted);
            let want: Vec<(ObjectId, usize)> = snapshot_ids
                .iter()
                .map(|e| (live[e.id as usize], e.score))
                .collect();
            let got: Vec<(ObjectId, usize)> = got.iter().map(|e| (e.id, e.score)).collect();
            assert_eq!(got, want, "σ={missing} `{text}`");
        }
    }
}
