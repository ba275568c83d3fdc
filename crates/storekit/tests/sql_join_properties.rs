//! Property checks for the SQL engine's joins, ranges, ordering and limits
//! against a brute-force reference over the same data.
//!
//! Each property runs a few hundred seeded splitmix64 databases; a failure
//! names the case seed. The last test breaks the executor on purpose (it
//! runs plans with their residual filters removed) and shows the checks
//! notice.

use std::collections::{HashMap, HashSet};
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::sql::exec::{execute, ExecOutcome, MemStore};
use storekit::sql::plan::PhysicalPlan;
use storekit::sql::{parse, plan};
use storekit::value::Datum;

const CASES: u64 = 256;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: i64) -> i64 {
        (self.next() % n as u64) as i64
    }
}

/// A small random database: `left(id, fk, x)` and `right(id, y)`, primary
/// keys de-duplicated keeping the first occurrence.
#[derive(Debug, Clone)]
struct Db {
    left: Vec<(i64, i64, i64)>,
    right: Vec<(i64, i64)>,
}

impl Db {
    fn random(rng: &mut Rng) -> Db {
        let mut seen = HashSet::new();
        let left = (0..rng.below(30))
            .map(|_| (rng.below(40), rng.below(12), rng.below(10)))
            .filter(|(id, _, _)| seen.insert(*id))
            .collect();
        let mut seen = HashSet::new();
        let right = (0..rng.below(12))
            .map(|_| (rng.below(12), rng.below(10)))
            .filter(|(id, _)| seen.insert(*id))
            .collect();
        Db { left, right }
    }

    fn load(&self) -> MemStore {
        let mut catalog = Catalog::new();
        catalog.add(
            TableSchema::new(
                "left",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("fk", ColumnType::Int),
                    ColumnDef::new("x", ColumnType::Int),
                ],
                "id",
                &["fk"],
            )
            .unwrap(),
        );
        catalog.add(
            TableSchema::new(
                "right",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("y", ColumnType::Int),
                ],
                "id",
                &[],
            )
            .unwrap(),
        );
        let mut store = MemStore::new(catalog);
        for &(id, fk, x) in &self.left {
            store
                .run(
                    "INSERT INTO left VALUES (?, ?, ?)",
                    &[id.into(), fk.into(), x.into()],
                )
                .unwrap();
        }
        for &(id, y) in &self.right {
            store
                .run("INSERT INTO right VALUES (?, ?)", &[id.into(), y.into()])
                .unwrap();
        }
        store
    }
}

/// How the executor under test runs a read.
#[derive(Clone, Copy, PartialEq)]
enum Executor {
    Real,
    /// Every residual filter removed from the plan before it runs.
    DropResiduals,
}

fn query(store: &mut MemStore, exec: Executor, sql: &str, params: &[Datum]) -> ExecOutcome {
    let mut physical = plan(&store.catalog, &parse(sql).unwrap()).unwrap();
    if let (Executor::DropResiduals, PhysicalPlan::Select(s)) = (exec, &mut physical) {
        s.residual.clear();
        if let Some(j) = &mut s.join {
            j.residual.clear();
        }
    }
    let catalog = store.catalog.clone();
    execute(&catalog, &physical, params, store).unwrap()
}

fn ints(out: &ExecOutcome, col: usize) -> Vec<i64> {
    out.rows
        .iter()
        .map(|r| r.get(col).unwrap().as_int().unwrap())
        .collect()
}

/// Run `property` over `CASES` seeded databases; the first failure's
/// message, with its seed.
fn first_failure(
    salt: u64,
    exec: Executor,
    mut property: impl FnMut(&mut Rng, &Db, Executor) -> Result<(), String>,
) -> Option<String> {
    (0..CASES).find_map(|case| {
        let seed = salt ^ (case << 20);
        let mut rng = Rng(seed);
        let db = Db::random(&mut rng);
        property(&mut rng, &db, exec)
            .err()
            .map(|e| format!("case seed {seed:#x}: {e}"))
    })
}

fn holds(salt: u64, property: impl FnMut(&mut Rng, &Db, Executor) -> Result<(), String>) {
    if let Some(e) = first_failure(salt, Executor::Real, property) {
        panic!("{e}");
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(got: T, expect: T) -> Result<(), String> {
    (got == expect)
        .then_some(())
        .ok_or_else(|| format!("got {got:?}, expected {expect:?}"))
}

/// The equi-join (by pk, with a residual on the left table) matches the
/// brute-force cross product filter, as a multiset of (x, y) pairs.
fn join_property(rng: &mut Rng, db: &Db, exec: Executor) -> Result<(), String> {
    let x_min = rng.below(10);
    let mut store = db.load();
    let out = query(
        &mut store,
        exec,
        "SELECT x, y FROM left JOIN right ON left.fk = right.id WHERE x >= ?",
        &[x_min.into()],
    );
    let mut got: Vec<(i64, i64)> = ints(&out, 0).into_iter().zip(ints(&out, 1)).collect();
    got.sort_unstable();
    let right_by_id: HashMap<i64, i64> = db.right.iter().copied().collect();
    let mut expect: Vec<(i64, i64)> = db
        .left
        .iter()
        .filter(|(_, _, x)| *x >= x_min)
        .filter_map(|(_, fk, x)| right_by_id.get(fk).map(|y| (*x, *y)))
        .collect();
    expect.sort_unstable();
    expect_eq(got, expect)
}

#[test]
fn join_matches_brute_force() {
    holds(0x301_0000, join_property);
}

/// Joins by secondary index and by scan, with residuals on both tables,
/// match brute force too.
#[test]
fn index_and_scan_joins_match_brute_force() {
    holds(0x301_1000, |rng, db, exec| {
        let (y_max, x_min) = (rng.below(10), rng.below(10));
        let mut store = db.load();
        // right.id → left.fk goes through the fk index; right.y → left.x
        // has no index on x, so it scans.
        for (sql, matches) in [
            (
                "SELECT right.id, left.id FROM right JOIN left ON right.id = left.fk \
                 WHERE right.y <= ? AND left.x >= ?",
                (|r: &(i64, i64), l: &(i64, i64, i64)| r.0 == l.1) as fn(&_, &_) -> bool,
            ),
            (
                "SELECT right.id, left.id FROM right JOIN left ON right.y = left.x \
                 WHERE right.y <= ? AND left.x >= ?",
                |r, l| r.1 == l.2,
            ),
        ] {
            let out = query(&mut store, exec, sql, &[y_max.into(), x_min.into()]);
            let mut got: Vec<(i64, i64)> = ints(&out, 0).into_iter().zip(ints(&out, 1)).collect();
            got.sort_unstable();
            let mut expect: Vec<(i64, i64)> = db
                .right
                .iter()
                .filter(|r| r.1 <= y_max)
                .flat_map(|r| {
                    db.left
                        .iter()
                        .filter(move |l| matches(r, l) && l.2 >= x_min)
                        .map(move |l| (r.0, l.0))
                })
                .collect();
            expect.sort_unstable();
            expect_eq(got, expect).map_err(|e| format!("{sql}: {e}"))?;
        }
        Ok(())
    });
}

/// COUNT(*) with an indexed equality agrees with direct counting.
#[test]
fn indexed_count_is_exact() {
    holds(0x301_2000, |rng, db, exec| {
        let probe_fk = rng.below(12);
        let mut store = db.load();
        let out = query(
            &mut store,
            exec,
            "SELECT COUNT(*) FROM left WHERE fk = ?",
            &[probe_fk.into()],
        );
        let expect = db.left.iter().filter(|(_, fk, _)| *fk == probe_fk).count() as i64;
        expect_eq(ints(&out, 0), vec![expect])
    });
}

/// ORDER BY x DESC LIMIT n returns the true top-n multiset, sorted.
#[test]
fn top_n_matches_reference() {
    holds(0x301_3000, |rng, db, exec| {
        let n = rng.below(8);
        let mut store = db.load();
        let out = query(
            &mut store,
            exec,
            &format!("SELECT x FROM left ORDER BY x DESC LIMIT {n}"),
            &[],
        );
        let mut xs: Vec<i64> = db.left.iter().map(|(_, _, x)| *x).collect();
        xs.sort_unstable_by(|a, b| b.cmp(a));
        xs.truncate(n as usize);
        expect_eq(ints(&out, 0), xs)
    });
}

/// PK range scans agree with direct filtering at arbitrary bounds.
#[test]
fn pk_ranges_match_reference() {
    holds(0x301_4000, |rng, db, exec| {
        let lo = rng.below(40);
        let hi = lo + rng.below(40);
        let mut store = db.load();
        let out = query(
            &mut store,
            exec,
            "SELECT id FROM left WHERE id >= ? AND id < ?",
            &[lo.into(), hi.into()],
        );
        let mut got = ints(&out, 0);
        got.sort_unstable();
        let mut expect: Vec<i64> = db
            .left
            .iter()
            .map(|(id, _, _)| *id)
            .filter(|id| (lo..hi).contains(id))
            .collect();
        expect.sort_unstable();
        expect_eq(got, expect)
    });
}

/// The join check is not vacuous: with its residual filter dropped, the
/// executor returns rows the reference excludes, and the check says so.
#[test]
fn a_dropped_residual_filter_is_caught() {
    let failure = first_failure(0x301_0000, Executor::DropResiduals, join_property);
    assert!(
        failure.as_ref().is_some_and(|e| e.contains("got")),
        "running the join without its residual filter must fail the check"
    );
}
