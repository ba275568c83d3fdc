//! Plan execution.
//!
//! The executor runs a [`PhysicalPlan`] against a [`RowStore`] — the
//! abstraction over "where rows actually live". In unit tests that is the
//! in-process [`MemStore`]; in the full deployment it is the cluster's
//! storage tier, whose implementation charges CPU to the right pods as the
//! executor pulls rows through it.
//!
//! Reads produce rows (plus MVCC versions); writes produce a [`WriteBatch`]
//! of low-level KV mutations (record row + index maintenance) that the
//! caller routes through Raft. The executor never applies writes itself:
//! commit versions are assigned at apply time by the replication layer.

use crate::error::{StoreError, StoreResult};
use crate::kv::{index_key, record_key, KvEngine};
use crate::row::Row;
use crate::schema::{Catalog, TableSchema};
use crate::sql::ast::Literal;
use crate::sql::plan::{
    Access, BoundPredicate, BoundProjection, JoinAccess, OutputCol, PhysicalPlan, SelectPlan,
};
use crate::value::Datum;
use serde::{Deserialize, Serialize};

/// Where rows live. `point_get` returns the row and its MVCC version.
pub trait RowStore {
    fn point_get(&mut self, table: &str, pk: &Datum) -> StoreResult<Option<(Row, u64)>>;
    fn index_lookup(
        &mut self,
        table: &str,
        column: usize,
        value: &Datum,
    ) -> StoreResult<Vec<(Row, u64)>>;
    /// Rows whose indexed `column` value lies in `[lo, hi]` (sides optional,
    /// conservatively inclusive — the executor re-applies the exact
    /// predicate as a residual filter).
    fn index_range(
        &mut self,
        table: &str,
        column: usize,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>>;
    /// Rows whose primary key lies in `[lo, hi]` (sides optional).
    fn pk_range(
        &mut self,
        table: &str,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>>;
    fn full_scan(&mut self, table: &str) -> StoreResult<Vec<(Row, u64)>>;
}

/// Execution statistics, the raw material of storage CPU accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Rows pulled from the store (visited, not necessarily returned).
    pub rows_visited: u64,
    /// Rows in the final result.
    pub rows_returned: u64,
    /// Logical bytes of rows pulled from the store.
    pub bytes_read: u64,
    /// Whether an index or PK access path was used.
    pub used_index: bool,
    /// Number of full table scans performed (including join-side scans).
    pub full_scans: u64,
}

/// One low-level KV mutation (`None` value = tombstone).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mutation {
    pub key: Vec<u8>,
    pub value: Option<Vec<u8>>,
}

/// All mutations produced by one write statement.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WriteBatch {
    pub table: String,
    /// Record mutation first, index maintenance after.
    pub mutations: Vec<Mutation>,
    /// Primary keys of rows touched (for cache invalidation upstream).
    pub touched_pks: Vec<Datum>,
    /// Logical bytes of the new row images (what replication would ship).
    pub logical_bytes: u64,
}

impl WriteBatch {
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }
}

/// Result of executing one plan.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    pub rows: Vec<Row>,
    /// MVCC version per returned row (left table's row version).
    pub versions: Vec<u64>,
    pub stats: ExecStats,
    /// Present iff the statement was a write.
    pub write: Option<WriteBatch>,
}

fn resolve<'a>(lit: &'a Literal, params: &'a [Datum]) -> StoreResult<&'a Datum> {
    lit.resolve(params).ok_or(StoreError::ArityMismatch {
        expected: match lit {
            Literal::Param(i) => i + 1,
            Literal::Datum(_) => 0,
        },
        got: params.len(),
    })
}

fn matches_all(row: &Row, preds: &[BoundPredicate], params: &[Datum]) -> StoreResult<bool> {
    for p in preds {
        let rhs = resolve(&p.value, params)?;
        let lhs = row.get(p.column).unwrap_or(&Datum::Null);
        if !p.op.eval(lhs.sql_cmp(rhs)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Candidate rows of an access path, in store order. A point get yields at
/// most one row, which needs no vector.
type Fetched = std::iter::Chain<std::option::IntoIter<(Row, u64)>, std::vec::IntoIter<(Row, u64)>>;

/// Fetch candidate rows for an access path, updating stats.
fn fetch(
    store: &mut dyn RowStore,
    table: &str,
    access: &Access,
    params: &[Datum],
    stats: &mut ExecStats,
) -> StoreResult<Fetched> {
    let (one, many) = match access {
        Access::PointGet { value } => {
            stats.used_index = true;
            let pk = resolve(value, params)?;
            (store.point_get(table, pk)?, Vec::new())
        }
        Access::IndexEq { column, value } => {
            stats.used_index = true;
            let v = resolve(value, params)?;
            (None, store.index_lookup(table, *column, v)?)
        }
        Access::IndexRange { column, lo, hi } => {
            stats.used_index = true;
            let lo = lo.as_ref().map(|l| resolve(l, params)).transpose()?;
            let hi = hi.as_ref().map(|h| resolve(h, params)).transpose()?;
            (None, store.index_range(table, *column, lo, hi)?)
        }
        Access::PkRange { lo, hi } => {
            stats.used_index = true;
            let lo = lo.as_ref().map(|l| resolve(l, params)).transpose()?;
            let hi = hi.as_ref().map(|h| resolve(h, params)).transpose()?;
            (None, store.pk_range(table, lo, hi)?)
        }
        Access::FullScan => {
            stats.full_scans += 1;
            (None, store.full_scan(table)?)
        }
    };
    for (row, _) in one.iter().chain(&many) {
        stats.rows_visited += 1;
        stats.bytes_read += row.encoded_size();
    }
    Ok(one.into_iter().chain(many))
}

/// Execute a plan. See module docs for the read/write split.
pub fn execute(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    params: &[Datum],
    store: &mut dyn RowStore,
) -> StoreResult<ExecOutcome> {
    match plan {
        PhysicalPlan::Select(s) => execute_select(catalog, s, params, store),
        PhysicalPlan::Insert {
            table,
            values,
            replace,
        } => execute_insert(catalog, table, values, *replace, params, store),
        PhysicalPlan::Update {
            table,
            access,
            residual,
            assignments,
        } => execute_update(catalog, table, access, residual, assignments, params, store),
        PhysicalPlan::Delete {
            table,
            access,
            residual,
        } => execute_delete(catalog, table, access, residual, params, store),
    }
}

/// A result row before projection: the left row, its version, and the
/// matching right row of a join.
type Joined = (Row, u64, Option<Row>);

/// Where accepted rows go. Without `ORDER BY` a row is projected into the
/// output as soon as it passes the filters; a sort must see every row
/// first, so those wait in `sorted`. `COUNT(*)` keeps no rows at all.
struct Sink<'p> {
    projection: &'p BoundProjection,
    sorting: bool,
    /// Rows accepted so far.
    accepted: u64,
    sorted: Vec<Joined>,
    out: ExecOutcome,
}

impl Sink<'_> {
    fn accept(&mut self, (lrow, lver, rrow): Joined) {
        self.accepted += 1;
        match self.projection {
            BoundProjection::CountStar => {}
            _ if self.sorting => self.sorted.push((lrow, lver, rrow)),
            projection => {
                self.out.rows.push(project(projection, lrow, lver, rrow));
                self.out.versions.push(lver);
            }
        }
    }
}

/// Project one result row. The left row's datum vector becomes the output
/// when every left column the projection reads is read once, in increasing
/// column order, and no earlier than its output position — as in every
/// point read the serve path issues (`v, _version`, `_version`). Output `j`
/// then only overwrites column `j`, which no later output reads, so each
/// datum moves into place. Any other projection builds a new row.
fn project(projection: &BoundProjection, mut lrow: Row, lver: u64, rrow: Option<Row>) -> Row {
    let cols = match projection {
        BoundProjection::Columns(cols) => cols,
        BoundProjection::Star | BoundProjection::CountStar => {
            if let Some(r) = rrow {
                lrow.0.extend(r.0);
            }
            return lrow;
        }
    };
    let right = |i: usize| {
        rrow.as_ref()
            .and_then(|r| r.get(i).cloned())
            .unwrap_or(Datum::Null)
    };
    let mut next_left = 0;
    let in_place = cols.iter().enumerate().all(|(j, col)| match *col {
        OutputCol::Left(i) => {
            let ok = i >= j && i >= next_left;
            next_left = i + 1;
            ok
        }
        OutputCol::Right(_) | OutputCol::Version => true,
    });
    if !in_place {
        let values = cols.iter().map(|col| match *col {
            OutputCol::Left(i) => lrow.get(i).cloned().unwrap_or(Datum::Null),
            OutputCol::Right(i) => right(i),
            OutputCol::Version => Datum::Int(lver as i64),
        });
        return Row(values.collect());
    }
    for (j, col) in cols.iter().enumerate() {
        let value = match *col {
            OutputCol::Left(i) => lrow
                .0
                .get_mut(i)
                .map_or(Datum::Null, |d| std::mem::replace(d, Datum::Null)),
            OutputCol::Right(i) => right(i),
            OutputCol::Version => Datum::Int(lver as i64),
        };
        match lrow.0.get_mut(j) {
            Some(slot) => *slot = value,
            None => lrow.0.push(value),
        }
    }
    lrow.0.truncate(cols.len());
    lrow
}

fn execute_select(
    catalog: &Catalog,
    s: &SelectPlan,
    params: &[Datum],
    store: &mut dyn RowStore,
) -> StoreResult<ExecOutcome> {
    let mut stats = ExecStats::default();
    let fetched = fetch(store, &s.table, &s.access, params, &mut stats)?;
    let mut sink = Sink {
        projection: &s.projection,
        sorting: s.order_by.is_some(),
        accepted: 0,
        sorted: Vec::new(),
        out: ExecOutcome::default(),
    };
    // LIMIT can only short-circuit when no sort reorders rows afterwards.
    let early_limit = if s.order_by.is_none() { s.limit } else { None };
    let full = |sink: &Sink| early_limit.is_some_and(|limit| sink.accepted >= limit);

    'left: for (lrow, lver) in fetched {
        if !matches_all(&lrow, &s.residual, params)? {
            continue;
        }
        match &s.join {
            None => sink.accept((lrow, lver, None)),
            Some(j) => {
                let key = lrow.get(j.left_col).unwrap_or(&Datum::Null).clone();
                if key.is_null() {
                    continue; // NULL join keys match nothing
                }
                let right_rows: Vec<(Row, u64)> = match j.access {
                    JoinAccess::ByPk => {
                        stats.used_index = true;
                        let r = store.point_get(&j.table, &key)?;
                        r.into_iter().collect()
                    }
                    JoinAccess::ByIndex => {
                        stats.used_index = true;
                        store.index_lookup(&j.table, j.right_col, &key)?
                    }
                    JoinAccess::Scan => {
                        stats.full_scans += 1;
                        store
                            .full_scan(&j.table)?
                            .into_iter()
                            .filter(|(r, _)| {
                                r.get(j.right_col).map(|v| v.sql_eq(&key)).unwrap_or(false)
                            })
                            .collect()
                    }
                };
                stats.rows_visited += right_rows.len() as u64;
                stats.bytes_read += right_rows
                    .iter()
                    .map(|(r, _)| r.encoded_size())
                    .sum::<u64>();
                for (rrow, _rver) in right_rows {
                    if !matches_all(&rrow, &j.residual, params)? {
                        continue;
                    }
                    sink.accept((lrow.clone(), lver, Some(rrow)));
                    if full(&sink) {
                        break 'left;
                    }
                }
            }
        }
        if full(&sink) {
            break;
        }
    }

    let limit = s.limit.map_or(usize::MAX, |l| l as usize);
    let Sink {
        accepted,
        mut sorted,
        mut out,
        ..
    } = sink;
    match &s.projection {
        BoundProjection::CountStar => {
            let count = accepted.min(limit as u64) as i64;
            out.rows.push(Row(vec![Datum::Int(count)]));
            out.versions.push(0);
        }
        projection => {
            if let Some((col, descending)) = s.order_by {
                sorted.sort_by(|(a, _, _), (b, _, _)| {
                    let lhs = a.get(col).unwrap_or(&Datum::Null);
                    let rhs = b.get(col).unwrap_or(&Datum::Null);
                    // NULLs first; incomparable pairs keep insertion order (Equal).
                    let ord = match (lhs.is_null(), rhs.is_null()) {
                        (true, true) => std::cmp::Ordering::Equal,
                        (true, false) => std::cmp::Ordering::Less,
                        (false, true) => std::cmp::Ordering::Greater,
                        (false, false) => lhs.sql_cmp(rhs).unwrap_or(std::cmp::Ordering::Equal),
                    };
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                for (lrow, lver, rrow) in sorted.into_iter().take(limit) {
                    out.rows.push(project(projection, lrow, lver, rrow));
                    out.versions.push(lver);
                }
            }
            // An early limit stops right after the row that reaches it, so
            // only LIMIT 0 leaves a row to drop.
            out.rows.truncate(limit);
            out.versions.truncate(limit);
        }
    }
    stats.rows_returned = out.rows.len() as u64;
    // Validate plan-time arity assumptions eagerly (catalog may be stale).
    catalog.get(&s.table)?;
    out.stats = stats;
    Ok(out)
}

/// Index-maintenance mutations for removing `row`'s entries.
fn index_deletes(schema: &TableSchema, row: &Row) -> Vec<Mutation> {
    let pk = schema.pk_of(row);
    schema
        .indexes
        .iter()
        .map(|&col| Mutation {
            key: index_key(&schema.name, col, row.get(col).unwrap_or(&Datum::Null), pk),
            value: None,
        })
        .collect()
}

/// Index-maintenance mutations for adding `row`'s entries. The entry's
/// value is the row's record key, so range scans can locate rows without
/// decoding variable-length key suffixes.
fn index_puts(schema: &TableSchema, row: &Row) -> Vec<Mutation> {
    let pk = schema.pk_of(row);
    schema
        .indexes
        .iter()
        .map(|&col| Mutation {
            key: index_key(&schema.name, col, row.get(col).unwrap_or(&Datum::Null), pk),
            value: Some(record_key(&schema.name, pk)),
        })
        .collect()
}

fn execute_insert(
    catalog: &Catalog,
    table: &str,
    values: &[Literal],
    replace: bool,
    params: &[Datum],
    store: &mut dyn RowStore,
) -> StoreResult<ExecOutcome> {
    let schema = catalog.get(table)?;
    let row = Row(values
        .iter()
        .map(|l| resolve(l, params).cloned())
        .collect::<StoreResult<Vec<_>>>()?);
    schema.validate(&row)?;
    let pk = schema.pk_of(&row).clone();

    let mut stats = ExecStats::default();
    let existing = {
        stats.used_index = true;
        let got = store.point_get(table, &pk)?;
        if let Some((r, _)) = &got {
            stats.rows_visited += 1;
            stats.bytes_read += r.encoded_size();
        }
        got
    };
    let mut batch = WriteBatch {
        table: table.to_string(),
        ..Default::default()
    };
    match existing {
        Some(_) if !replace => return Err(StoreError::DuplicateKey(pk.to_string())),
        Some((old, _)) => {
            batch.mutations.extend(index_deletes(schema, &old));
        }
        None => {}
    }
    batch.logical_bytes = row.encoded_size();
    batch.mutations.insert(
        0,
        Mutation {
            key: record_key(table, &pk),
            value: Some(row.encode()),
        },
    );
    batch.mutations.extend(index_puts(schema, &row));
    batch.touched_pks.push(pk);

    Ok(ExecOutcome {
        stats,
        write: Some(batch),
        ..Default::default()
    })
}

fn execute_update(
    catalog: &Catalog,
    table: &str,
    access: &Access,
    residual: &[BoundPredicate],
    assignments: &[(usize, Literal)],
    params: &[Datum],
    store: &mut dyn RowStore,
) -> StoreResult<ExecOutcome> {
    let schema = catalog.get(table)?;
    let mut stats = ExecStats::default();
    let candidates = fetch(store, table, access, params, &mut stats)?;
    let mut batch = WriteBatch {
        table: table.to_string(),
        ..Default::default()
    };
    for (old, _ver) in candidates {
        if !matches_all(&old, residual, params)? {
            continue;
        }
        let mut new = old.clone();
        for (col, lit) in assignments {
            new.0[*col] = resolve(lit, params)?.clone();
        }
        schema.validate(&new)?;
        let pk = schema.pk_of(&new).clone();
        // Only rewrite index entries for columns that changed.
        for m in index_deletes(schema, &old)
            .into_iter()
            .zip(index_puts(schema, &new))
            .filter(|(del, put)| del.key != put.key)
            .flat_map(|(del, put)| [del, put])
        {
            batch.mutations.push(m);
        }
        batch.logical_bytes += new.encoded_size();
        batch.mutations.insert(
            0,
            Mutation {
                key: record_key(table, &pk),
                value: Some(new.encode()),
            },
        );
        batch.touched_pks.push(pk);
    }
    Ok(ExecOutcome {
        stats,
        write: Some(batch),
        ..Default::default()
    })
}

fn execute_delete(
    catalog: &Catalog,
    table: &str,
    access: &Access,
    residual: &[BoundPredicate],
    params: &[Datum],
    store: &mut dyn RowStore,
) -> StoreResult<ExecOutcome> {
    let schema = catalog.get(table)?;
    let mut stats = ExecStats::default();
    let candidates = fetch(store, table, access, params, &mut stats)?;
    let mut batch = WriteBatch {
        table: table.to_string(),
        ..Default::default()
    };
    for (old, _ver) in candidates {
        if !matches_all(&old, residual, params)? {
            continue;
        }
        let pk = schema.pk_of(&old).clone();
        batch.mutations.push(Mutation {
            key: record_key(table, &pk),
            value: None,
        });
        batch.mutations.extend(index_deletes(schema, &old));
        batch.touched_pks.push(pk);
    }
    Ok(ExecOutcome {
        stats,
        write: Some(batch),
        ..Default::default()
    })
}

// ---------------------------------------------------------------------------
// MemStore: a single-node RowStore over one KvEngine
// ---------------------------------------------------------------------------

/// A simple single-node store: one [`KvEngine`], no replication, no block
/// cache. Used by unit tests and as the state machine replicas apply into.
#[derive(Debug, Default)]
pub struct MemStore {
    pub kv: KvEngine,
    pub catalog: Catalog,
}

impl MemStore {
    pub fn new(catalog: Catalog) -> Self {
        MemStore {
            kv: KvEngine::new(),
            catalog,
        }
    }

    /// Apply a write batch, assigning fresh commit versions. Returns the
    /// version of the record mutation (the row's new MVCC version).
    pub fn apply(&mut self, batch: &WriteBatch) -> u64 {
        let mut row_version = 0;
        for (i, m) in batch.mutations.iter().enumerate() {
            let v = self.kv.next_version();
            self.kv.put_at(&m.key, m.value.as_deref(), v);
            if i == 0 {
                row_version = v;
            }
        }
        row_version
    }

    /// Parse, plan, execute, and apply (if a write) in one call.
    pub fn run(&mut self, sql: &str, params: &[Datum]) -> StoreResult<ExecOutcome> {
        let stmt = crate::sql::parser::parse(sql)?;
        let plan = crate::sql::plan::plan(&self.catalog, &stmt)?;
        let catalog = self.catalog.clone();
        let mut outcome = execute(&catalog, &plan, params, self)?;
        if let Some(batch) = &outcome.write {
            let v = self.apply(batch);
            outcome.versions.push(v);
        }
        Ok(outcome)
    }
}

impl RowStore for MemStore {
    fn point_get(&mut self, table: &str, pk: &Datum) -> StoreResult<Option<(Row, u64)>> {
        let key = record_key(table, pk);
        match self.kv.get_latest(&key) {
            None => Ok(None),
            Some(v) => Ok(Some((Row::decode(v.value)?, v.version))),
        }
    }

    fn index_lookup(
        &mut self,
        table: &str,
        column: usize,
        value: &Datum,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let prefix = crate::kv::index_prefix(table, column, value);
        let record_keys: Vec<Vec<u8>> = self
            .kv
            .scan_prefix(&prefix, u64::MAX)
            .map(|(_, v)| v.value.to_vec())
            .collect();
        let mut rows = Vec::new();
        for key in record_keys {
            if let Some(v) = self.kv.get_latest(&key) {
                rows.push((Row::decode(v.value)?, v.version));
            }
        }
        Ok(rows)
    }

    fn index_range(
        &mut self,
        table: &str,
        column: usize,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let (start, end) = crate::kv::index_range_bounds(table, column, lo, hi);
        let record_keys: Vec<Vec<u8>> = self
            .kv
            .scan_between(&start, end.as_deref(), u64::MAX)
            .map(|(_, v)| v.value.to_vec())
            .collect();
        let mut rows = Vec::new();
        for key in record_keys {
            if let Some(v) = self.kv.get_latest(&key) {
                rows.push((Row::decode(v.value)?, v.version));
            }
        }
        Ok(rows)
    }

    fn pk_range(
        &mut self,
        table: &str,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let (start, end) = crate::kv::record_range_bounds(table, lo, hi);
        self.kv
            .scan_between(&start, end.as_deref(), u64::MAX)
            .map(|(_, v)| Ok((Row::decode(v.value)?, v.version)))
            .collect()
    }

    fn full_scan(&mut self, table: &str) -> StoreResult<Vec<(Row, u64)>> {
        let prefix = crate::kv::record_prefix(table);
        self.kv
            .scan_prefix(&prefix, u64::MAX)
            .map(|(_, v)| Ok((Row::decode(v.value)?, v.version)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};

    fn store() -> MemStore {
        let mut catalog = Catalog::new();
        catalog.add(
            TableSchema::new(
                "users",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("name", ColumnType::Text),
                    ColumnDef::new("org", ColumnType::Int),
                ],
                "id",
                &["org"],
            )
            .unwrap(),
        );
        catalog.add(
            TableSchema::new(
                "orgs",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("title", ColumnType::Text),
                ],
                "id",
                &[],
            )
            .unwrap(),
        );
        let mut s = MemStore::new(catalog);
        for (id, name, org) in [(1, "ada", 10), (2, "bob", 10), (3, "cyd", 20)] {
            s.run(
                "INSERT INTO users VALUES (?, ?, ?)",
                &[id.into(), name.into(), (org as i64).into()],
            )
            .unwrap();
        }
        s.run("INSERT INTO orgs VALUES (10, 'eng')", &[]).unwrap();
        s.run("INSERT INTO orgs VALUES (20, 'ops')", &[]).unwrap();
        s
    }

    #[test]
    fn point_select_returns_one_row() {
        let mut s = store();
        let out = s.run("SELECT * FROM users WHERE id = 2", &[]).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(1), Some(&Datum::Text("bob".into())));
        assert_eq!(out.stats.rows_visited, 1);
        assert!(out.stats.used_index);
        assert_eq!(out.stats.full_scans, 0);
    }

    #[test]
    fn index_lookup_finds_all_matches() {
        let mut s = store();
        let out = s.run("SELECT name FROM users WHERE org = 10", &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.stats.rows_visited, 2);
        assert!(out.stats.used_index);
    }

    #[test]
    fn full_scan_with_residual_filter() {
        let mut s = store();
        let out = s
            .run("SELECT id FROM users WHERE name = 'cyd'", &[])
            .unwrap();
        assert_eq!(out.rows, vec![Row(vec![Datum::Int(3)])]);
        assert_eq!(out.stats.rows_visited, 3, "full scan visits everything");
        assert_eq!(out.stats.full_scans, 1);
    }

    #[test]
    fn join_by_pk_returns_combined_columns() {
        let mut s = store();
        let out = s
            .run(
                "SELECT name, title FROM users JOIN orgs ON users.org = orgs.id \
                 WHERE users.id = 1",
                &[],
            )
            .unwrap();
        assert_eq!(out.rows, vec![Row(vec!["ada".into(), "eng".into()])]);
    }

    #[test]
    fn join_star_concatenates_rows() {
        let mut s = store();
        let out = s
            .run(
                "SELECT * FROM users JOIN orgs ON users.org = orgs.id WHERE users.id = 3",
                &[],
            )
            .unwrap();
        assert_eq!(out.rows[0].len(), 5);
        assert_eq!(out.rows[0].get(4), Some(&Datum::Text("ops".into())));
    }

    #[test]
    fn count_star_counts_matches() {
        let mut s = store();
        let out = s
            .run("SELECT COUNT(*) FROM users WHERE org = 10", &[])
            .unwrap();
        assert_eq!(out.rows, vec![Row(vec![Datum::Int(2)])]);
    }

    #[test]
    fn limit_truncates_and_short_circuits() {
        let mut s = store();
        let out = s.run("SELECT * FROM users LIMIT 2", &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn version_pseudo_column_tracks_updates() {
        let mut s = store();
        let v1 = s
            .run("SELECT _version FROM users WHERE id = 1", &[])
            .unwrap()
            .rows[0]
            .get(0)
            .unwrap()
            .as_int()
            .unwrap();
        s.run("UPDATE users SET name = 'ada2' WHERE id = 1", &[])
            .unwrap();
        let v2 = s
            .run("SELECT _version FROM users WHERE id = 1", &[])
            .unwrap()
            .rows[0]
            .get(0)
            .unwrap()
            .as_int()
            .unwrap();
        assert!(v2 > v1, "version must advance on update: {v1} -> {v2}");
    }

    #[test]
    fn update_rewrites_index_entries() {
        let mut s = store();
        s.run("UPDATE users SET org = 20 WHERE id = 1", &[])
            .unwrap();
        let ten = s
            .run("SELECT COUNT(*) FROM users WHERE org = 10", &[])
            .unwrap();
        let twenty = s
            .run("SELECT COUNT(*) FROM users WHERE org = 20", &[])
            .unwrap();
        assert_eq!(ten.rows[0].get(0), Some(&Datum::Int(1)));
        assert_eq!(twenty.rows[0].get(0), Some(&Datum::Int(2)));
    }

    #[test]
    fn update_without_index_change_keeps_entries() {
        let mut s = store();
        s.run("UPDATE users SET name = 'x' WHERE id = 1", &[])
            .unwrap();
        let out = s.run("SELECT name FROM users WHERE org = 10", &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn delete_removes_row_and_index_entries() {
        let mut s = store();
        s.run("DELETE FROM users WHERE id = 2", &[]).unwrap();
        assert!(s
            .run("SELECT * FROM users WHERE id = 2", &[])
            .unwrap()
            .rows
            .is_empty());
        let by_org = s.run("SELECT * FROM users WHERE org = 10", &[]).unwrap();
        assert_eq!(by_org.rows.len(), 1);
    }

    #[test]
    fn duplicate_insert_rejected_replace_allowed() {
        let mut s = store();
        let err = s
            .run("INSERT INTO users VALUES (1, 'dup', 30)", &[])
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey(_)));
        s.run("REPLACE INTO users VALUES (1, 'new', 30)", &[])
            .unwrap();
        let out = s
            .run("SELECT name, org FROM users WHERE id = 1", &[])
            .unwrap();
        assert_eq!(out.rows, vec![Row(vec!["new".into(), Datum::Int(30)])]);
        // old index entry must be gone, new one present
        assert!(
            s.run("SELECT * FROM users WHERE org = 10", &[])
                .unwrap()
                .rows
                .len()
                == 1
        );
        assert!(
            s.run("SELECT * FROM users WHERE org = 30", &[])
                .unwrap()
                .rows
                .len()
                == 1
        );
    }

    #[test]
    fn missing_params_error_cleanly() {
        let mut s = store();
        let err = s.run("SELECT * FROM users WHERE id = ?", &[]).unwrap_err();
        assert!(matches!(err, StoreError::ArityMismatch { .. }));
    }

    #[test]
    fn null_join_keys_match_nothing() {
        let mut s = store();
        s.run("INSERT INTO users VALUES (9, 'nil', ?)", &[Datum::Null])
            .unwrap();
        let out = s
            .run(
                "SELECT * FROM users JOIN orgs ON users.org = orgs.id WHERE users.id = 9",
                &[],
            )
            .unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn update_by_index_touches_only_matches() {
        let mut s = store();
        let out = s
            .run("UPDATE users SET name = 'multi' WHERE org = 10", &[])
            .unwrap();
        assert_eq!(out.write.as_ref().unwrap().touched_pks.len(), 2);
        let names = s.run("SELECT name FROM users WHERE org = 10", &[]).unwrap();
        for row in names.rows {
            assert_eq!(row.get(0), Some(&Datum::Text("multi".into())));
        }
    }

    #[test]
    fn order_by_sorts_and_limits_correctly() {
        let mut s = store();
        let out = s
            .run("SELECT name FROM users ORDER BY name DESC", &[])
            .unwrap();
        let names: Vec<&str> = out
            .rows
            .iter()
            .map(|r| r.get(0).unwrap().as_text().unwrap())
            .collect();
        assert_eq!(names, vec!["cyd", "bob", "ada"]);
        // Top-N: LIMIT must apply AFTER the sort, not short-circuit it.
        let out = s
            .run("SELECT id FROM users ORDER BY id DESC LIMIT 1", &[])
            .unwrap();
        assert_eq!(out.rows, vec![Row(vec![Datum::Int(3)])]);
        // Ascending default.
        let out = s
            .run("SELECT id FROM users ORDER BY org ASC LIMIT 2", &[])
            .unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn order_by_puts_nulls_first() {
        let mut s = store();
        s.run("INSERT INTO users VALUES (9, 'nil', ?)", &[Datum::Null])
            .unwrap();
        let out = s
            .run("SELECT id FROM users ORDER BY org LIMIT 1", &[])
            .unwrap();
        assert_eq!(out.rows, vec![Row(vec![Datum::Int(9)])]);
    }

    #[test]
    fn order_by_on_join_right_table_is_unsupported() {
        let mut s = store();
        let err = s
            .run(
                "SELECT * FROM users JOIN orgs ON users.org = orgs.id ORDER BY orgs.title",
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Unsupported(_)));
    }

    #[test]
    fn pk_range_queries_return_exact_rows() {
        let mut s = store();
        // ids are 1, 2, 3
        let out = s
            .run("SELECT id FROM users WHERE id > 1 AND id <= 3", &[])
            .unwrap();
        let ids: Vec<i64> = out
            .rows
            .iter()
            .map(|r| r.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(out.stats.used_index, "pk range must not full-scan");
        assert_eq!(out.stats.full_scans, 0);
        // Exclusive bounds are exact despite conservative byte ranges.
        let out = s
            .run("SELECT id FROM users WHERE id > 1 AND id < 3", &[])
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(0), Some(&Datum::Int(2)));
    }

    #[test]
    fn index_range_queries_use_the_index() {
        let mut s = store();
        // orgs are 10, 10, 20
        let out = s
            .run("SELECT name FROM users WHERE org >= 15", &[])
            .unwrap();
        assert_eq!(out.rows, vec![Row(vec!["cyd".into()])]);
        assert!(out.stats.used_index);
        assert_eq!(out.stats.full_scans, 0);
        let all = s
            .run("SELECT COUNT(*) FROM users WHERE org > 5 AND org < 25", &[])
            .unwrap();
        assert_eq!(all.rows[0].get(0), Some(&Datum::Int(3)));
    }

    #[test]
    fn range_bounds_resolve_from_params() {
        let mut s = store();
        let out = s
            .run(
                "SELECT id FROM users WHERE id >= ? AND id <= ?",
                &[1.into(), 2.into()],
            )
            .unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn ranges_reflect_updates_and_deletes() {
        let mut s = store();
        s.run("UPDATE users SET org = 30 WHERE id = 3", &[])
            .unwrap();
        let out = s
            .run("SELECT COUNT(*) FROM users WHERE org >= 25", &[])
            .unwrap();
        assert_eq!(out.rows[0].get(0), Some(&Datum::Int(1)));
        s.run("DELETE FROM users WHERE id = 3", &[]).unwrap();
        let out = s
            .run("SELECT COUNT(*) FROM users WHERE org >= 25", &[])
            .unwrap();
        assert_eq!(out.rows[0].get(0), Some(&Datum::Int(0)));
    }

    #[test]
    fn payload_values_flow_through_params() {
        let mut catalog = Catalog::new();
        catalog.add(
            TableSchema::new(
                "kv",
                vec![
                    ColumnDef::new("k", ColumnType::Int),
                    ColumnDef::new("v", ColumnType::Bytes),
                ],
                "k",
                &[],
            )
            .unwrap(),
        );
        let mut s = MemStore::new(catalog);
        let payload = Datum::Payload {
            len: 1 << 20,
            seed: 5,
        };
        s.run("INSERT INTO kv VALUES (?, ?)", &[1.into(), payload.clone()])
            .unwrap();
        let out = s.run("SELECT v FROM kv WHERE k = 1", &[]).unwrap();
        assert_eq!(out.rows[0].get(0), Some(&payload));
        assert!(out.stats.bytes_read > 1 << 20, "logical bytes accounted");
    }
}
