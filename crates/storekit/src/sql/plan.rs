//! The planner: resolve names against the catalog and choose access paths.
//!
//! Access-path choice is the cost-relevant decision: a point get touches one
//! row; an index-equality lookup touches the matching rows; a full scan
//! touches the table. The planner prefers primary key, then secondary
//! index, then full scan — and the executor reports rows actually visited,
//! so mis-planned queries show up as storage CPU, exactly as they would in
//! the paper's TiDB deployment.

use crate::error::{StoreError, StoreResult};
use crate::schema::Catalog;
use crate::sql::ast::*;

/// Column index of the `_version` pseudo-column (the MVCC commit version),
/// readable in projections: `SELECT _version FROM t WHERE pk = ?`.
pub const VERSION_COLUMN: usize = usize::MAX;

/// How the base table is accessed.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Single-row lookup by primary key.
    PointGet { value: Literal },
    /// All rows matching an indexed column.
    IndexEq { column: usize, value: Literal },
    /// Rows whose indexed column lies in a (conservative, inclusive) range;
    /// the exact predicate stays in the residual filter.
    IndexRange {
        column: usize,
        lo: Option<Literal>,
        hi: Option<Literal>,
    },
    /// Rows whose primary key lies in a range (record space is pk-ordered).
    PkRange {
        lo: Option<Literal>,
        hi: Option<Literal>,
    },
    /// Scan every row.
    FullScan,
}

/// A name-resolved predicate on a specific side of the (optional) join.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPredicate {
    pub column: usize,
    pub op: CmpOp,
    pub value: Literal,
}

/// Join execution strategy for the right-hand table.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinAccess {
    /// Right join column is its primary key → one point get per left row.
    ByPk,
    /// Right join column has a secondary index.
    ByIndex,
    /// No index → full scan of the right table, filtered per left row.
    Scan,
}

/// A resolved join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    pub table: String,
    /// Column index on the left table providing the join key.
    pub left_col: usize,
    /// Column index on the right table matched against it.
    pub right_col: usize,
    pub access: JoinAccess,
    /// Residual predicates applying to right-table columns.
    pub residual: Vec<BoundPredicate>,
}

/// A projected output column.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputCol {
    Left(usize),
    Right(usize),
    /// The MVCC version of the left row.
    Version,
}

#[derive(Debug, Clone, PartialEq)]
pub enum BoundProjection {
    Star,
    Columns(Vec<OutputCol>),
    CountStar,
}

/// A fully resolved SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    pub table: String,
    pub access: Access,
    /// Residual predicates on the left table (not covered by the access path).
    pub residual: Vec<BoundPredicate>,
    pub join: Option<JoinPlan>,
    pub projection: BoundProjection,
    /// Sort on a left-table column before projection/limit.
    pub order_by: Option<(usize, bool)>,
    pub limit: Option<u64>,
}

/// A resolved statement ready for execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    Select(SelectPlan),
    Insert {
        table: String,
        values: Vec<Literal>,
        replace: bool,
    },
    Update {
        table: String,
        access: Access,
        residual: Vec<BoundPredicate>,
        /// (column index, new value)
        assignments: Vec<(usize, Literal)>,
    },
    Delete {
        table: String,
        access: Access,
        residual: Vec<BoundPredicate>,
    },
}

impl PhysicalPlan {
    pub fn is_read(&self) -> bool {
        matches!(self, PhysicalPlan::Select(_))
    }
}

/// Split predicates between the two tables of a select and resolve columns.
fn split_predicates(
    catalog: &Catalog,
    left_table: &str,
    right_table: Option<&str>,
    predicates: &[Predicate],
) -> StoreResult<(Vec<BoundPredicate>, Vec<BoundPredicate>)> {
    let left_schema = catalog.get(left_table)?;
    let mut left = Vec::new();
    let mut right = Vec::new();
    for p in predicates {
        let qualified = p.col.table.as_deref();
        let on_left = match qualified {
            Some(t) => t == left_table,
            None => left_schema.column_index(&p.col.column).is_ok(),
        };
        if on_left {
            left.push(BoundPredicate {
                column: left_schema.column_index(&p.col.column)?,
                op: p.op,
                value: p.value.clone(),
            });
        } else if let Some(rt) = right_table {
            if let Some(t) = qualified {
                if t != rt {
                    return Err(StoreError::UnknownTable(t.to_string()));
                }
            }
            let right_schema = catalog.get(rt)?;
            right.push(BoundPredicate {
                column: right_schema.column_index(&p.col.column)?,
                op: p.op,
                value: p.value.clone(),
            });
        } else {
            return Err(StoreError::UnknownColumn {
                table: left_table.to_string(),
                column: p.col.column.clone(),
            });
        }
    }
    Ok((left, right))
}

/// Choose the best access path from equality predicates; the chosen
/// predicate is removed from the residual list.
fn choose_access(
    catalog: &Catalog,
    table: &str,
    predicates: &mut Vec<BoundPredicate>,
) -> StoreResult<Access> {
    let schema = catalog.get(table)?;
    // Prefer the primary key…
    if let Some(i) = predicates
        .iter()
        .position(|p| p.op == CmpOp::Eq && p.column == schema.primary_key)
    {
        let p = predicates.remove(i);
        return Ok(Access::PointGet { value: p.value });
    }
    // …then any secondary index.
    if let Some(i) = predicates
        .iter()
        .position(|p| p.op == CmpOp::Eq && schema.indexes.contains(&p.column))
    {
        let p = predicates.remove(i);
        return Ok(Access::IndexEq {
            column: p.column,
            value: p.value,
        });
    }
    // …then range predicates on the primary key or an indexed column. The
    // bounds are conservative (inclusive both sides regardless of </<=);
    // the predicates stay in the residual list so results are exact.
    let range_cols: Vec<usize> = {
        let mut cols: Vec<usize> = predicates
            .iter()
            .filter(|p| {
                matches!(p.op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
                    && schema.is_indexed(p.column)
            })
            .map(|p| p.column)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    };
    // Prefer the primary key (record space), otherwise the first indexed
    // column with a range predicate.
    let pick = range_cols
        .iter()
        .copied()
        .find(|&c| c == schema.primary_key)
        .or_else(|| range_cols.first().copied());
    if let Some(column) = pick {
        let mut lo = None;
        let mut hi = None;
        for p in predicates.iter().filter(|p| p.column == column) {
            match p.op {
                CmpOp::Gt | CmpOp::Ge if lo.is_none() => lo = Some(p.value.clone()),
                CmpOp::Lt | CmpOp::Le if hi.is_none() => hi = Some(p.value.clone()),
                _ => {}
            }
        }
        if lo.is_some() || hi.is_some() {
            return Ok(if column == schema.primary_key {
                Access::PkRange { lo, hi }
            } else {
                Access::IndexRange { column, lo, hi }
            });
        }
    }
    Ok(Access::FullScan)
}

/// Resolve an AST statement into a physical plan.
pub fn plan(catalog: &Catalog, stmt: &Statement) -> StoreResult<PhysicalPlan> {
    match stmt {
        Statement::Select(s) => plan_select(catalog, s).map(PhysicalPlan::Select),
        Statement::Insert(i) => {
            let schema = catalog.get(&i.table)?;
            if i.values.len() != schema.column_count() {
                return Err(StoreError::ArityMismatch {
                    expected: schema.column_count(),
                    got: i.values.len(),
                });
            }
            Ok(PhysicalPlan::Insert {
                table: i.table.clone(),
                values: i.values.clone(),
                replace: i.replace,
            })
        }
        Statement::Update(u) => {
            let schema = catalog.get(&u.table)?;
            let (mut preds, _) = split_predicates(catalog, &u.table, None, &u.predicates)?;
            let access = choose_access(catalog, &u.table, &mut preds)?;
            let mut assignments = Vec::new();
            for (col, lit) in &u.assignments {
                let idx = schema.column_index(col)?;
                if idx == schema.primary_key {
                    return Err(StoreError::Unsupported(
                        "updating the primary key".to_string(),
                    ));
                }
                assignments.push((idx, lit.clone()));
            }
            Ok(PhysicalPlan::Update {
                table: u.table.clone(),
                access,
                residual: preds,
                assignments,
            })
        }
        Statement::Delete(d) => {
            let (mut preds, _) = split_predicates(catalog, &d.table, None, &d.predicates)?;
            let access = choose_access(catalog, &d.table, &mut preds)?;
            Ok(PhysicalPlan::Delete {
                table: d.table.clone(),
                access,
                residual: preds,
            })
        }
    }
}

fn plan_select(catalog: &Catalog, s: &SelectStmt) -> StoreResult<SelectPlan> {
    let left_schema = catalog.get(&s.table)?;
    let right_table = s.join.as_ref().map(|j| j.table.as_str());

    let (mut left_preds, right_preds) =
        split_predicates(catalog, &s.table, right_table, &s.predicates)?;
    let access = choose_access(catalog, &s.table, &mut left_preds)?;

    let join = match &s.join {
        None => None,
        Some(j) => {
            let right_schema = catalog.get(&j.table)?;
            // Figure out which side of the ON condition is which table.
            let (left_ref, right_ref) = {
                let l_is_left = j.left.table.as_deref() == Some(s.table.as_str())
                    || (j.left.table.is_none() && left_schema.column_index(&j.left.column).is_ok());
                if l_is_left {
                    (&j.left, &j.right)
                } else {
                    (&j.right, &j.left)
                }
            };
            let left_col = left_schema.column_index(&left_ref.column)?;
            let right_col = right_schema.column_index(&right_ref.column)?;
            let access = if right_col == right_schema.primary_key {
                JoinAccess::ByPk
            } else if right_schema.indexes.contains(&right_col) {
                JoinAccess::ByIndex
            } else {
                JoinAccess::Scan
            };
            Some(JoinPlan {
                table: j.table.clone(),
                left_col,
                right_col,
                access,
                residual: right_preds,
            })
        }
    };

    let projection = match &s.projection {
        Projection::Star => BoundProjection::Star,
        Projection::CountStar => BoundProjection::CountStar,
        Projection::Columns(cols) => {
            let mut out = Vec::new();
            for c in cols {
                if c.column == "_version" {
                    out.push(OutputCol::Version);
                    continue;
                }
                let prefer_left = match c.table.as_deref() {
                    Some(t) => t == s.table,
                    None => left_schema.column_index(&c.column).is_ok(),
                };
                if prefer_left {
                    out.push(OutputCol::Left(left_schema.column_index(&c.column)?));
                } else if let Some(j) = &join {
                    let right_schema = catalog.get(&j.table)?;
                    out.push(OutputCol::Right(right_schema.column_index(&c.column)?));
                } else {
                    return Err(StoreError::UnknownColumn {
                        table: s.table.clone(),
                        column: c.column.clone(),
                    });
                }
            }
            BoundProjection::Columns(out)
        }
    };

    let order_by = match &s.order_by {
        None => None,
        Some(ob) => {
            if let Some(t) = ob.col.table.as_deref() {
                if t != s.table {
                    return Err(StoreError::Unsupported(
                        "ORDER BY on joined-table columns".to_string(),
                    ));
                }
            }
            Some((left_schema.column_index(&ob.col.column)?, ob.descending))
        }
    };

    Ok(SelectPlan {
        table: s.table.clone(),
        access,
        residual: left_preds,
        join,
        projection,
        order_by,
        limit: s.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};
    use crate::sql::parser::parse;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
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
        c.add(
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
        c
    }

    fn plan_sql(sql: &str) -> StoreResult<PhysicalPlan> {
        plan(&catalog(), &parse(sql)?)
    }

    #[test]
    fn pk_equality_becomes_point_get() {
        match plan_sql("SELECT * FROM users WHERE id = ?").unwrap() {
            PhysicalPlan::Select(s) => {
                assert_eq!(
                    s.access,
                    Access::PointGet {
                        value: Literal::Param(0)
                    }
                );
                assert!(s.residual.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn indexed_equality_becomes_index_lookup() {
        match plan_sql("SELECT * FROM users WHERE org = 7").unwrap() {
            PhysicalPlan::Select(s) => {
                assert!(matches!(s.access, Access::IndexEq { column: 2, .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unindexed_predicate_full_scans_with_residual() {
        match plan_sql("SELECT * FROM users WHERE name = 'bob'").unwrap() {
            PhysicalPlan::Select(s) => {
                assert_eq!(s.access, Access::FullScan);
                assert_eq!(s.residual.len(), 1);
                assert_eq!(s.residual[0].column, 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn pk_preferred_over_index() {
        match plan_sql("SELECT * FROM users WHERE org = 7 AND id = 1").unwrap() {
            PhysicalPlan::Select(s) => {
                assert!(matches!(s.access, Access::PointGet { .. }));
                assert_eq!(s.residual.len(), 1, "org predicate stays residual");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn pk_range_predicates_use_record_range() {
        match plan_sql("SELECT * FROM users WHERE id > 5").unwrap() {
            PhysicalPlan::Select(s) => {
                assert!(matches!(
                    s.access,
                    Access::PkRange {
                        lo: Some(_),
                        hi: None
                    }
                ));
                assert_eq!(s.residual.len(), 1, "exact bound stays residual");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn indexed_range_predicates_use_index_range() {
        match plan_sql("SELECT * FROM users WHERE org >= 3 AND org < 9").unwrap() {
            PhysicalPlan::Select(s) => {
                match s.access {
                    Access::IndexRange { column, lo, hi } => {
                        assert_eq!(column, 2);
                        assert!(lo.is_some() && hi.is_some());
                    }
                    other => panic!("expected range access, got {other:?}"),
                }
                assert_eq!(s.residual.len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unindexed_range_still_full_scans() {
        match plan_sql("SELECT * FROM users WHERE name > 'm'").unwrap() {
            PhysicalPlan::Select(s) => assert_eq!(s.access, Access::FullScan),
            _ => panic!(),
        }
    }

    #[test]
    fn join_resolves_sides_and_access() {
        match plan_sql(
            "SELECT name, title FROM users JOIN orgs ON users.org = orgs.id WHERE users.id = 1",
        )
        .unwrap()
        {
            PhysicalPlan::Select(s) => {
                let j = s.join.unwrap();
                assert_eq!(j.table, "orgs");
                assert_eq!(j.left_col, 2);
                assert_eq!(j.right_col, 0);
                assert_eq!(j.access, JoinAccess::ByPk);
                match s.projection {
                    BoundProjection::Columns(cols) => {
                        assert_eq!(cols, vec![OutputCol::Left(1), OutputCol::Right(1)]);
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn join_condition_order_is_normalized() {
        // ON written right-to-left resolves the same way.
        match plan_sql("SELECT * FROM users JOIN orgs ON orgs.id = users.org").unwrap() {
            PhysicalPlan::Select(s) => {
                let j = s.join.unwrap();
                assert_eq!((j.left_col, j.right_col), (2, 0));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn version_pseudo_column_projects() {
        match plan_sql("SELECT _version FROM users WHERE id = ?").unwrap() {
            PhysicalPlan::Select(s) => match s.projection {
                BoundProjection::Columns(cols) => assert_eq!(cols, vec![OutputCol::Version]),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn update_resolves_assignments_and_rejects_pk_update() {
        match plan_sql("UPDATE users SET name = ? WHERE id = ?").unwrap() {
            PhysicalPlan::Update {
                access,
                assignments,
                ..
            } => {
                assert!(matches!(access, Access::PointGet { .. }));
                assert_eq!(assignments, vec![(1, Literal::Param(0))]);
            }
            _ => panic!(),
        }
        assert!(matches!(
            plan_sql("UPDATE users SET id = 9 WHERE id = 1"),
            Err(StoreError::Unsupported(_))
        ));
    }

    #[test]
    fn insert_arity_checked_at_plan_time() {
        assert!(plan_sql("INSERT INTO users VALUES (1, 'a', 2)").is_ok());
        assert!(matches!(
            plan_sql("INSERT INTO users VALUES (1, 'a')"),
            Err(StoreError::ArityMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(matches!(
            plan_sql("SELECT * FROM ghosts"),
            Err(StoreError::UnknownTable(_))
        ));
        assert!(matches!(
            plan_sql("SELECT nope FROM users"),
            Err(StoreError::UnknownColumn { .. })
        ));
        assert!(plan_sql("SELECT * FROM users WHERE wrong.id = 1").is_err());
    }

    #[test]
    fn delete_uses_index_when_available() {
        match plan_sql("DELETE FROM users WHERE org = 3").unwrap() {
            PhysicalPlan::Delete { access, .. } => {
                assert!(matches!(access, Access::IndexEq { column: 2, .. }));
            }
            _ => panic!(),
        }
    }
}
