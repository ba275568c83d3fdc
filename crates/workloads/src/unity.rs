//! The Unity Catalog workload — rich application objects over an
//! entity-relationship schema.
//!
//! §5.2 of the paper describes the production service: a hierarchical
//! namespace (metastore → catalog → schema → table) with principals and
//! privileges, ≈93% reads at ~40K QPS, median value ≈23 KB, and `getTable`
//! as the dominant operation — which "translates to up to 8 SQL queries
//! directed at multiple tables in the database".
//!
//! This module provides:
//!
//! * [`unity_schema`] — the relational schema (8 entity tables),
//! * [`UnityDataset`] — a deterministic generative model of the entities:
//!   every derived property (which schema a table belongs to, how many
//!   columns/privileges/constraints it has, how large its property blobs
//!   are) is a pure function of `(scale, seed, table_id)`,
//! * [`UnityDataset::get_table_statements`] — the 8-statement read path,
//! * [`unity_kv_schema`] / denormalized rows — the **Unity Catalog-KV**
//!   variant of §5.4, where the whole object is one pre-joined row,
//! * [`UnityWorkload`] — the request trace (Zipfian table popularity,
//!   93% `getTable`, 7% property updates), reproducing Figure 3.
//!
//! One simplification, documented for reviewers: in production the app
//! reads statement 1 and extracts `schema_id`/`owner` from the result to
//! parameterize statements 2/3/8. Here those parameters come from the same
//! generative model that produced the stored rows, so they are identical to
//! what result-parsing would yield (a test asserts this); the *sequencing*
//! (8 dependent statements per read) and all sizes are preserved.

use crate::sizes::SizeDist;
use crate::zipf::ZipfSampler;
use cachekit::ring::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::value::Datum;

/// Scale knobs for the generated universe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnityScale {
    pub tables: u64,
    pub schemas: u64,
    pub catalogs: u64,
    pub principals: u64,
    /// Zipf α of table popularity (Figure 3b is Zipf-like).
    pub alpha: f64,
    /// Fraction of requests that are reads (`getTable`); §5.2 reports ≈93%.
    pub read_ratio: f64,
    pub seed: u64,
}

impl Default for UnityScale {
    fn default() -> Self {
        UnityScale {
            tables: 20_000,
            schemas: 800,
            catalogs: 40,
            principals: 2_000,
            alpha: 1.1,
            read_ratio: 0.93,
            seed: 42,
        }
    }
}

impl UnityScale {
    /// A small universe for unit tests.
    pub fn tiny(seed: u64) -> Self {
        UnityScale {
            tables: 200,
            schemas: 20,
            catalogs: 4,
            principals: 30,
            alpha: 1.1,
            read_ratio: 0.93,
            seed,
        }
    }
}

/// The relational schema of the governance service.
pub fn unity_schema() -> Catalog {
    let mut c = Catalog::new();
    let t = |name: &str, cols: Vec<ColumnDef>, pk: &str, idx: &[&str]| {
        TableSchema::new(name, cols, pk, idx).expect("static schema is valid")
    };
    c.add(t(
        "metastores",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
        ],
        "id",
        &[],
    ));
    c.add(t(
        "catalogs",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("metastore", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("owner", ColumnType::Int),
        ],
        "id",
        &["metastore"],
    ));
    c.add(t(
        "schemas",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("catalog", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("owner", ColumnType::Int),
        ],
        "id",
        &["catalog"],
    ));
    c.add(t(
        "tables",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("schema_id", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("owner", ColumnType::Int),
            ColumnDef::new("format", ColumnType::Text),
            ColumnDef::new("properties", ColumnType::Bytes),
        ],
        "id",
        &["schema_id"],
    ));
    c.add(t(
        "principals",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("kind", ColumnType::Text),
        ],
        "id",
        &[],
    ));
    c.add(t(
        "privileges",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("securable", ColumnType::Int),
            ColumnDef::new("grantee", ColumnType::Int),
            ColumnDef::new("privilege", ColumnType::Text),
        ],
        "id",
        &["securable"],
    ));
    c.add(t(
        "constraints",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("table_ref", ColumnType::Int),
            ColumnDef::new("kind", ColumnType::Text),
            ColumnDef::new("definition", ColumnType::Bytes),
        ],
        "id",
        &["table_ref"],
    ));
    c.add(t(
        "columns_meta",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("table_ref", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("dtype", ColumnType::Text),
            ColumnDef::new("comment", ColumnType::Bytes),
        ],
        "id",
        &["table_ref"],
    ));
    c.add(t(
        "lineage",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("table_ref", ColumnType::Int),
            ColumnDef::new("upstream", ColumnType::Int),
            ColumnDef::new("kind", ColumnType::Text),
        ],
        "id",
        &["table_ref"],
    ));
    c
}

/// The denormalized schema for **Unity Catalog-KV** (§5.4): the entire
/// object pre-joined into one row.
pub fn unity_kv_schema() -> Catalog {
    let mut c = Catalog::new();
    c.add(
        TableSchema::new(
            "objects",
            vec![
                ColumnDef::new("k", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Bytes),
            ],
            "k",
            &[],
        )
        .expect("static schema is valid"),
    );
    c
}

/// The deterministic generative model of the universe.
#[derive(Debug, Clone)]
pub struct UnityDataset {
    pub scale: UnityScale,
    props_dist: SizeDist,
    comment_dist: SizeDist,
    constraint_dist: SizeDist,
}

impl UnityDataset {
    pub fn new(scale: UnityScale) -> Self {
        UnityDataset {
            scale,
            // Tuned so the assembled object's median lands near the paper's
            // ≈23 KB with a heavy tail (asserted by a test).
            props_dist: SizeDist::LogNormal {
                median: 10_000,
                sigma: 1.1,
            },
            comment_dist: SizeDist::LogNormal {
                median: 400,
                sigma: 0.8,
            },
            constraint_dist: SizeDist::LogNormal {
                median: 900,
                sigma: 0.7,
            },
        }
    }

    fn h(&self, domain: u64, id: u64) -> u64 {
        splitmix64(id ^ splitmix64(domain ^ self.scale.seed.wrapping_mul(0x9E37)))
    }

    // --- structural relationships (all pure functions of table id) ---

    pub fn schema_of_table(&self, t: u64) -> u64 {
        self.h(1, t) % self.scale.schemas
    }

    pub fn catalog_of_schema(&self, s: u64) -> u64 {
        self.h(2, s) % self.scale.catalogs
    }

    pub fn owner_of_table(&self, t: u64) -> u64 {
        self.h(3, t) % self.scale.principals
    }

    pub fn columns_of_table(&self, t: u64) -> u64 {
        5 + self.h(4, t) % 25 // 5..=29 columns
    }

    pub fn constraints_of_table(&self, t: u64) -> u64 {
        self.h(5, t) % 4 // 0..=3
    }

    pub fn privileges_of_table(&self, t: u64) -> u64 {
        2 + self.h(6, t) % 8 // 2..=9
    }

    pub fn lineage_of_table(&self, t: u64) -> u64 {
        self.h(7, t) % 6 // 0..=5
    }

    /// The property-blob seed, bumped by updates: `generation` distinguishes
    /// rewritten blobs (size stays stable, content identity changes).
    pub fn properties_payload(&self, t: u64, generation: u64) -> Datum {
        Datum::Payload {
            len: self.props_dist.size_of(t, self.scale.seed ^ 0xA),
            seed: self.h(8, t) ^ generation,
        }
    }

    fn comment_payload(&self, t: u64, col: u64) -> Datum {
        Datum::Payload {
            len: self
                .comment_dist
                .size_of(t * 131 + col, self.scale.seed ^ 0xB),
            seed: self.h(9, t * 131 + col),
        }
    }

    fn constraint_payload(&self, t: u64, i: u64) -> Datum {
        Datum::Payload {
            len: self
                .constraint_dist
                .size_of(t * 17 + i, self.scale.seed ^ 0xC),
            seed: self.h(10, t * 17 + i),
        }
    }

    /// Composite ids for dependent entities, collision-free by construction.
    fn column_id(&self, t: u64, i: u64) -> i64 {
        (t * 64 + i) as i64
    }
    fn constraint_id(&self, t: u64, i: u64) -> i64 {
        (t * 8 + i) as i64
    }
    fn privilege_id(&self, t: u64, i: u64) -> i64 {
        (t * 16 + i) as i64
    }
    fn lineage_id(&self, t: u64, i: u64) -> i64 {
        (t * 8 + i) as i64
    }

    /// All seed rows for the relational flavor, as `(table, row values)`.
    /// Iterate lazily: the full default universe is ~700K rows.
    pub fn seed_rows(&self) -> impl Iterator<Item = (&'static str, Vec<Datum>)> + '_ {
        let scale = self.scale;
        let metastores = std::iter::once((
            "metastores",
            vec![Datum::Int(0), Datum::Text("prod".into())],
        ));
        let catalogs = (0..scale.catalogs).map(move |c| {
            (
                "catalogs",
                vec![
                    Datum::Int(c as i64),
                    Datum::Int(0),
                    Datum::Text(format!("catalog_{c}")),
                    Datum::Int((self.h(11, c) % scale.principals) as i64),
                ],
            )
        });
        let schemas = (0..scale.schemas).map(move |s| {
            (
                "schemas",
                vec![
                    Datum::Int(s as i64),
                    Datum::Int(self.catalog_of_schema(s) as i64),
                    Datum::Text(format!("schema_{s}")),
                    Datum::Int((self.h(12, s) % scale.principals) as i64),
                ],
            )
        });
        let principals = (0..scale.principals).map(move |p| {
            (
                "principals",
                vec![
                    Datum::Int(p as i64),
                    Datum::Text(format!("principal_{p}")),
                    Datum::Text(if p % 10 == 0 { "group" } else { "user" }.into()),
                ],
            )
        });
        let per_table = (0..scale.tables).flat_map(move |t| {
            let mut rows: Vec<(&'static str, Vec<Datum>)> = Vec::new();
            rows.push((
                "tables",
                vec![
                    Datum::Int(t as i64),
                    Datum::Int(self.schema_of_table(t) as i64),
                    Datum::Text(format!("table_{t}")),
                    Datum::Int(self.owner_of_table(t) as i64),
                    Datum::Text("delta".into()),
                    self.properties_payload(t, 0),
                ],
            ));
            for i in 0..self.columns_of_table(t) {
                rows.push((
                    "columns_meta",
                    vec![
                        Datum::Int(self.column_id(t, i)),
                        Datum::Int(t as i64),
                        Datum::Text(format!("col_{i}")),
                        Datum::Text("string".into()),
                        self.comment_payload(t, i),
                    ],
                ));
            }
            for i in 0..self.constraints_of_table(t) {
                rows.push((
                    "constraints",
                    vec![
                        Datum::Int(self.constraint_id(t, i)),
                        Datum::Int(t as i64),
                        Datum::Text("check".into()),
                        self.constraint_payload(t, i),
                    ],
                ));
            }
            for i in 0..self.privileges_of_table(t) {
                rows.push((
                    "privileges",
                    vec![
                        Datum::Int(self.privilege_id(t, i)),
                        Datum::Int(t as i64),
                        Datum::Int((self.h(13, t * 16 + i) % scale.principals) as i64),
                        Datum::Text("SELECT".into()),
                    ],
                ));
            }
            for i in 0..self.lineage_of_table(t) {
                rows.push((
                    "lineage",
                    vec![
                        Datum::Int(self.lineage_id(t, i)),
                        Datum::Int(t as i64),
                        Datum::Int((self.h(14, t * 8 + i) % scale.tables) as i64),
                        Datum::Text("upstream".into()),
                    ],
                ));
            }
            rows
        });
        metastores
            .chain(catalogs)
            .chain(schemas)
            .chain(principals)
            .chain(per_table)
    }

    /// The §5.2 read path: 8 dependent SQL statements for one `getTable`.
    pub fn get_table_statements(&self, t: u64) -> Vec<(&'static str, Vec<Datum>)> {
        let schema = self.schema_of_table(t);
        let catalog = self.catalog_of_schema(schema);
        let owner = self.owner_of_table(t);
        vec![
            (
                "SELECT * FROM tables WHERE id = ?",
                vec![Datum::Int(t as i64)],
            ),
            (
                "SELECT * FROM schemas WHERE id = ?",
                vec![Datum::Int(schema as i64)],
            ),
            (
                "SELECT * FROM catalogs WHERE id = ?",
                vec![Datum::Int(catalog as i64)],
            ),
            (
                "SELECT * FROM privileges WHERE securable = ?",
                vec![Datum::Int(t as i64)],
            ),
            (
                "SELECT * FROM constraints WHERE table_ref = ?",
                vec![Datum::Int(t as i64)],
            ),
            (
                "SELECT * FROM columns_meta WHERE table_ref = ?",
                vec![Datum::Int(t as i64)],
            ),
            (
                "SELECT * FROM lineage WHERE table_ref = ?",
                vec![Datum::Int(t as i64)],
            ),
            (
                "SELECT * FROM principals WHERE id = ?",
                vec![Datum::Int(owner as i64)],
            ),
        ]
    }

    /// The write path: rewrite the table's property blob (generation bump).
    pub fn update_table_statement(&self, t: u64, generation: u64) -> (&'static str, Vec<Datum>) {
        (
            "UPDATE tables SET properties = ? WHERE id = ?",
            vec![self.properties_payload(t, generation), Datum::Int(t as i64)],
        )
    }

    /// Logical size of the fully-assembled rich object for table `t` — the
    /// value cached by the object-caching architectures and the row size of
    /// the denormalized KV flavor.
    pub fn object_logical_bytes(&self, t: u64) -> u64 {
        let mut total = 0u64;
        // table row parts
        total += self.properties_payload(t, 0).encoded_size() + 120;
        for i in 0..self.columns_of_table(t) {
            total += self.comment_payload(t, i).encoded_size() + 60;
        }
        for i in 0..self.constraints_of_table(t) {
            total += self.constraint_payload(t, i).encoded_size() + 40;
        }
        total += self.privileges_of_table(t) * 80;
        total += self.lineage_of_table(t) * 70;
        total += 200; // schema/catalog/principal fragments
        total
    }

    /// Seed rows for the denormalized Unity Catalog-KV flavor.
    pub fn denorm_rows(&self) -> impl Iterator<Item = Vec<Datum>> + '_ {
        (0..self.scale.tables).map(move |t| {
            vec![
                Datum::Int(t as i64),
                Datum::Payload {
                    len: self.object_logical_bytes(t),
                    seed: self.h(15, t),
                },
            ]
        })
    }
}

/// One request against Unity Catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnityOp {
    GetTable,
    UpdateTable,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnityRequest {
    pub op: UnityOp,
    pub table: u64,
}

/// The deterministic request stream over the dataset.
pub struct UnityWorkload {
    zipf: ZipfSampler,
    read_ratio: f64,
    rng: StdRng,
}

impl UnityWorkload {
    pub fn new(scale: &UnityScale, stream_seed: u64) -> Self {
        UnityWorkload {
            zipf: ZipfSampler::new(scale.tables, scale.alpha),
            read_ratio: scale.read_ratio,
            rng: StdRng::seed_from_u64(stream_seed ^ scale.seed),
        }
    }
}

impl Iterator for UnityWorkload {
    type Item = UnityRequest;
    fn next(&mut self) -> Option<UnityRequest> {
        let table = self.zipf.sample_key(&mut self.rng);
        let op = if self.rng.gen_bool(self.read_ratio) {
            UnityOp::GetTable
        } else {
            UnityOp::UpdateTable
        };
        Some(UnityRequest { op, table })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storekit::sql::exec::MemStore;

    #[test]
    fn dataset_is_deterministic() {
        let a = UnityDataset::new(UnityScale::tiny(7));
        let b = UnityDataset::new(UnityScale::tiny(7));
        for t in 0..50 {
            assert_eq!(a.schema_of_table(t), b.schema_of_table(t));
            assert_eq!(a.object_logical_bytes(t), b.object_logical_bytes(t));
        }
        let c = UnityDataset::new(UnityScale::tiny(8));
        assert_ne!(
            (0..50)
                .map(|t| a.object_logical_bytes(t))
                .collect::<Vec<_>>(),
            (0..50)
                .map(|t| c.object_logical_bytes(t))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn object_sizes_match_figure_3a() {
        // Median ≈ 23 KB with a heavy tail (paper Figure 3a).
        let d = UnityDataset::new(UnityScale::default());
        let mut sizes: Vec<u64> = (0..5_000).map(|t| d.object_logical_bytes(t)).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        assert!(
            (15_000..=35_000).contains(&median),
            "median object size {median} outside the ~23KB regime"
        );
        let p99 = sizes[(sizes.len() as f64 * 0.99) as usize];
        assert!(
            p99 > 3 * median,
            "p99 {p99} not heavy-tailed vs median {median}"
        );
    }

    #[test]
    fn get_table_issues_eight_statements() {
        let d = UnityDataset::new(UnityScale::tiny(1));
        let stmts = d.get_table_statements(5);
        assert_eq!(stmts.len(), 8, "§5.2: getTable → up to 8 SQL queries");
        let tables: Vec<&str> = stmts.iter().map(|(sql, _)| *sql).collect();
        assert!(tables[0].contains("FROM tables"));
        assert!(tables[3].contains("FROM privileges"));
    }

    #[test]
    fn generated_rows_load_and_answer_get_table() {
        let d = UnityDataset::new(UnityScale::tiny(3));
        let mut store = MemStore::new(unity_schema());
        for (table, values) in d.seed_rows() {
            let placeholders = vec!["?"; values.len()].join(", ");
            let sql = format!("INSERT INTO {table} VALUES ({placeholders})");
            store.run(&sql, &values).unwrap();
        }
        // Every one of the 8 statements returns the rows the model predicts.
        for t in [0u64, 7, 123] {
            let stmts = d.get_table_statements(t);
            let results: Vec<_> = stmts
                .iter()
                .map(|(sql, params)| store.run(sql, params).unwrap())
                .collect();
            assert_eq!(results[0].rows.len(), 1, "table row");
            assert_eq!(results[1].rows.len(), 1, "schema row");
            assert_eq!(results[2].rows.len(), 1, "catalog row");
            assert_eq!(results[3].rows.len() as u64, d.privileges_of_table(t));
            assert_eq!(results[4].rows.len() as u64, d.constraints_of_table(t));
            assert_eq!(results[5].rows.len() as u64, d.columns_of_table(t));
            assert_eq!(results[6].rows.len() as u64, d.lineage_of_table(t));
            assert_eq!(results[7].rows.len(), 1, "owner row");
            // Parameter shortcut is sound: stmt 1's stored row carries
            // exactly the ids the model used for stmts 2 and 8.
            let table_row = &results[0].rows[0];
            assert_eq!(
                table_row.get(1),
                Some(&Datum::Int(d.schema_of_table(t) as i64))
            );
            assert_eq!(
                table_row.get(3),
                Some(&Datum::Int(d.owner_of_table(t) as i64))
            );
        }
    }

    #[test]
    fn privileges_join_principals_works_on_the_uc_schema() {
        // §5.5 notes that bypassing SQL "forfeits joins"; prove our engine
        // supports the natural UC join: privileges with grantee names.
        let d = UnityDataset::new(UnityScale::tiny(3));
        let mut store = MemStore::new(unity_schema());
        for (table, values) in d.seed_rows() {
            let placeholders = vec!["?"; values.len()].join(", ");
            let sql = format!("INSERT INTO {table} VALUES ({placeholders})");
            store.run(&sql, &values).unwrap();
        }
        let t = 11u64;
        let out = store
            .run(
                "SELECT privilege, name FROM privileges                  JOIN principals ON privileges.grantee = principals.id                  WHERE securable = ?",
                &[Datum::Int(t as i64)],
            )
            .unwrap();
        assert_eq!(out.rows.len() as u64, d.privileges_of_table(t));
        for row in &out.rows {
            assert_eq!(row.get(0), Some(&Datum::Text("SELECT".into())));
            assert!(row
                .get(1)
                .unwrap()
                .as_text()
                .unwrap()
                .starts_with("principal_"));
        }
        // Top-N privileges ordered by grantee id — ORDER BY + LIMIT on the
        // same schema.
        let out = store
            .run(
                "SELECT grantee FROM privileges WHERE securable = ? ORDER BY grantee DESC LIMIT 2",
                &[Datum::Int(t as i64)],
            )
            .unwrap();
        assert!(out.rows.len() <= 2);
        if out.rows.len() == 2 {
            assert!(out.rows[0].get(0).unwrap().as_int() >= out.rows[1].get(0).unwrap().as_int());
        }
    }

    #[test]
    fn trace_matches_read_ratio_and_skew() {
        let scale = UnityScale::default();
        let reqs: Vec<UnityRequest> = UnityWorkload::new(&scale, 1).take(30_000).collect();
        let reads = reqs.iter().filter(|r| r.op == UnityOp::GetTable).count() as f64;
        let ratio = reads / reqs.len() as f64;
        assert!((ratio - 0.93).abs() < 0.01, "read ratio {ratio}");

        let mut counts = std::collections::HashMap::new();
        for r in &reqs {
            *counts.entry(r.table).or_insert(0u64) += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top_frac = freq.iter().take(200).sum::<u64>() as f64 / reqs.len() as f64;
        assert!(top_frac > 0.4, "popularity not skewed enough: {top_frac}");
    }

    #[test]
    fn updates_change_payload_identity_but_not_size() {
        let d = UnityDataset::new(UnityScale::tiny(1));
        let before = d.properties_payload(3, 0);
        let after = d.properties_payload(3, 1);
        assert_ne!(before, after, "generation bump changes content identity");
        match (&before, &after) {
            (Datum::Payload { len: l1, .. }, Datum::Payload { len: l2, .. }) => {
                assert_eq!(l1, l2, "size is a stable property of the table");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn denorm_rows_cover_all_tables_with_object_sizes() {
        let d = UnityDataset::new(UnityScale::tiny(5));
        let rows: Vec<_> = d.denorm_rows().collect();
        assert_eq!(rows.len() as u64, d.scale.tables);
        match &rows[7][1] {
            Datum::Payload { len, .. } => assert_eq!(*len, d.object_logical_bytes(7)),
            _ => panic!(),
        }
    }
}
