//! Statement receipts, pinned.
//!
//! A fixed corpus of statements — point hits and misses, the `_version`
//! probe, index and primary-key ranges, full scans, joins by primary key,
//! index and scan, `ORDER BY … LIMIT`, `COUNT(*)`, and writes with index
//! maintenance — runs on two paper-shaped clusters: one through
//! `SqlCluster::execute` on the SQL text, the other through
//! `prepare_cached`/`execute_cached`. After every statement the two must
//! return the same receipt (or error) and leave every front-end and storage
//! pod's CPU meter equal; `execute_cached` promises exactly that.
//!
//! Each receipt's `Debug` text is also pinned by an FNV-1a digest, so an
//! executor or cluster change that moves any row, version, byte count,
//! counter or CPU charge of any statement fails here and names it.

use simnet::SimTime;
use storekit::schema::{ColumnDef, ColumnType, TableSchema};
use storekit::{Catalog, ClusterConfig, Datum, SqlCluster, StoreResult};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add(
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
    c.add(
        TableSchema::new(
            "users",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("org", ColumnType::Int),
                ColumnDef::new("bio", ColumnType::Bytes),
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

fn payload(len: u64, seed: u64) -> Datum {
    Datum::Payload { len, seed }
}

/// The corpus, in execution order: SQL text and parameters.
fn corpus() -> Vec<(&'static str, Vec<Datum>)> {
    let user = |id: i64, name: &str, org: i64, bio: usize| {
        vec![
            id.into(),
            name.into(),
            org.into(),
            Datum::Bytes(vec![b'b'; bio]),
        ]
    };
    vec![
        // Writes with index maintenance.
        (
            "INSERT INTO users VALUES (?, ?, ?, ?)",
            user(1, "ada", 10, 3),
        ),
        (
            "INSERT INTO users VALUES (?, ?, ?, ?)",
            user(2, "bob", 10, 40),
        ),
        (
            "INSERT INTO users VALUES (?, ?, ?, ?)",
            user(3, "cyd", 20, 0),
        ),
        (
            "INSERT INTO users VALUES (?, ?, ?, ?)",
            user(4, "eng", 30, 7),
        ),
        (
            "INSERT INTO users VALUES (?, ?, ?, ?)",
            user(5, "dee", 20, 90),
        ),
        ("INSERT INTO orgs VALUES (10, 'eng')", vec![]),
        ("INSERT INTO orgs VALUES (20, 'ops')", vec![]),
        (
            "INSERT INTO orgs VALUES (?, ?)",
            vec![40.into(), "bob".into()],
        ),
        (
            "REPLACE INTO kv VALUES (?, ?)",
            vec![7.into(), payload(1_024, 1)],
        ),
        (
            "REPLACE INTO kv VALUES (?, ?)",
            vec![8.into(), Datum::Bytes(vec![0; 33])],
        ),
        // Duplicate key: an error, after front-end admission was charged.
        (
            "INSERT INTO users VALUES (?, ?, ?, ?)",
            user(1, "dup", 10, 0),
        ),
        // Point hit and miss, projections in and out of column order.
        ("SELECT v FROM kv WHERE k = ?", vec![7.into()]),
        ("SELECT v FROM kv WHERE k = ?", vec![404.into()]),
        ("SELECT v, _version FROM kv WHERE k = ?", vec![7.into()]),
        ("SELECT v, _version FROM kv WHERE k = ?", vec![404.into()]),
        ("SELECT _version FROM kv WHERE k = ?", vec![8.into()]),
        (
            "SELECT v, k, v, _version, k FROM kv WHERE k = ?",
            vec![8.into()],
        ),
        ("SELECT * FROM users WHERE id = ?", vec![2.into()]),
        ("SELECT name FROM users WHERE id = 3 AND org = 20", vec![]),
        ("SELECT name FROM users WHERE id = 3 AND org = 30", vec![]),
        // Index equality and range, primary-key range, full scan.
        ("SELECT * FROM users WHERE org = ?", vec![10.into()]),
        (
            "SELECT name, id FROM users WHERE org >= ? AND org < ?",
            vec![15.into(), 31.into()],
        ),
        (
            "SELECT id FROM users WHERE id > ? AND id <= ?",
            vec![1.into(), 4.into()],
        ),
        (
            "SELECT id, bio FROM users WHERE name = ?",
            vec!["cyd".into()],
        ),
        ("SELECT id FROM users LIMIT 2", vec![]),
        // Joins by primary key, by index and by scan.
        (
            "SELECT name, title FROM users JOIN orgs ON users.org = orgs.id WHERE users.id = ?",
            vec![1.into()],
        ),
        (
            "SELECT * FROM users JOIN orgs ON users.org = orgs.id WHERE users.org = ?",
            vec![20.into()],
        ),
        (
            "SELECT title, name, _version FROM orgs JOIN users ON orgs.id = users.org",
            vec![],
        ),
        (
            "SELECT orgs.id, users.id FROM orgs JOIN users ON orgs.title = users.name",
            vec![],
        ),
        (
            "SELECT title FROM orgs JOIN users ON orgs.id = users.org LIMIT 1",
            vec![],
        ),
        // ORDER BY … LIMIT and COUNT(*).
        (
            "SELECT id, name FROM users ORDER BY name DESC LIMIT 3",
            vec![],
        ),
        ("SELECT * FROM users ORDER BY org LIMIT 2", vec![]),
        ("SELECT COUNT(*) FROM users WHERE org = ?", vec![20.into()]),
        ("SELECT COUNT(*) FROM users", vec![]),
        ("SELECT COUNT(*) FROM users LIMIT 2", vec![]),
        (
            "SELECT COUNT(*) FROM users JOIN orgs ON users.org = orgs.id",
            vec![],
        ),
        // Updates, replaces and deletes that move index entries.
        (
            "REPLACE INTO users VALUES (?, ?, ?, ?)",
            user(2, "bob", 20, 5),
        ),
        (
            "UPDATE users SET org = ? WHERE id = ?",
            vec![40.into(), 3.into()],
        ),
        (
            "UPDATE users SET name = ? WHERE org = ?",
            vec!["multi".into(), 20.into()],
        ),
        (
            "UPDATE users SET bio = ? WHERE id = ?",
            vec![Datum::Bytes(vec![1; 64]), 404.into()],
        ),
        ("DELETE FROM users WHERE id = ?", vec![1.into()]),
        ("DELETE FROM users WHERE org = ?", vec![40.into()]),
        ("DELETE FROM kv WHERE k = ?", vec![8.into()]),
        (
            "REPLACE INTO kv VALUES (?, ?)",
            vec![7.into(), payload(64, 2)],
        ),
        // The reads again, over the rewritten data.
        ("SELECT v, _version FROM kv WHERE k = ?", vec![7.into()]),
        ("SELECT _version FROM kv WHERE k = ?", vec![8.into()]),
        ("SELECT * FROM users WHERE org = ?", vec![20.into()]),
        ("SELECT COUNT(*) FROM users WHERE org >= ?", vec![0.into()]),
        (
            "SELECT name, title FROM users JOIN orgs ON users.org = orgs.id",
            vec![],
        ),
        // Missing parameter: an error from the executor.
        ("SELECT v FROM kv WHERE k = ?", vec![]),
        // LIMIT 0, COUNT(*) under a sort, a sorted join, and projections
        // narrower and wider than the row they reuse.
        ("SELECT id FROM users LIMIT 0", vec![]),
        ("SELECT v FROM kv WHERE k = ? LIMIT 0", vec![7.into()]),
        ("SELECT COUNT(*) FROM users WHERE org = ? LIMIT 0", vec![20.into()]),
        ("SELECT COUNT(*) FROM users ORDER BY id LIMIT 1", vec![]),
        (
            "SELECT name, title FROM users JOIN orgs ON users.org = orgs.id ORDER BY id DESC LIMIT 1",
            vec![],
        ),
        ("SELECT v, k FROM kv WHERE k = ?", vec![7.into()]),
        ("SELECT k, v, k, v, k, v, k, v, _version FROM kv WHERE k = ?", vec![7.into()]),
        // Projections that may not reuse the row in place: a column read
        // after an earlier output overwrote it, or read twice.
        ("SELECT _version, k FROM kv WHERE k = ?", vec![7.into()]),
        ("SELECT v, v FROM kv WHERE k = ?", vec![7.into()]),
        (
            "SELECT title, users.id FROM users JOIN orgs ON users.org = orgs.id WHERE users.id = ?",
            vec![2.into()],
        ),
    ]
}

/// FNV-1a digests of each corpus statement's receipt (or error) `Debug`
/// text, in corpus order.
const PINNED: [u64; 60] = [
    0x3152_151d_47bf_66cd,
    0x4479_f6fc_1b3f_9e43,
    0x9fa6_af8f_ddfe_4565,
    0x1c5e_797d_faf3_e349,
    0xbab5_2fb6_ad54_ac72,
    0x34f4_f117_f75c_2e27,
    0x13a4_b019_adfc_d5a0,
    0x5c81_3a45_53d6_ff22,
    0x55eb_71b6_8d83_d605,
    0x0c1b_2476_fd3b_be80,
    0xacd1_1bab_2435_f9d3,
    0xd613_458a_b714_4d40,
    0xe287_819f_8f2b_8ec8,
    0x8240_7228_032f_8caa,
    0xec04_718d_411f_86c3,
    0x906f_34d3_c70e_6800,
    0x6891_3a9f_07d4_629f,
    0x8d65_d08e_7316_b74e,
    0xf7a0_859e_bbdc_0d1b,
    0x6b75_cc60_88f2_5d89,
    0x354d_1a46_53de_83d4,
    0xd92a_08fa_2987_4f1b,
    0x3ff4_4cf2_4d06_f071,
    0x2643_5307_cc18_9c2e,
    0xcc4d_85a5_ba7c_559b,
    0xf455_318d_4d53_ee03,
    0x85b9_18c9_4980_82e0,
    0x20e8_3353_c7bc_0f03,
    0x1149_c585_eb53_0c58,
    0x1dd0_c2b9_8402_1038,
    0x970e_4a5e_6527_e66d,
    0x4b18_fcaa_f2d2_dbb7,
    0xf8cc_81bb_ff5f_8103,
    0x228d_9187_2790_68a6,
    0x411b_c0f4_5814_dc94,
    0x82e0_7d89_00bf_8491,
    0x74ed_92d4_5fab_d4df,
    0x1c83_e521_cc81_cdd4,
    0x496a_1f23_6a1c_d63a,
    0x993b_bd4a_3136_a859,
    0xa734_e1c5_ab73_62fd,
    0x150e_b958_826f_28a9,
    0xd4fe_d15d_05fc_d006,
    0xa9f9_657a_eca8_756f,
    0x6659_d8b8_f3f7_a579,
    0xd312_dbab_c506_1016,
    0x44a0_6f8c_c0b0_60f0,
    0xe4d6_8591_c2d7_ea07,
    0x7a0d_772c_b4db_bfea,
    0xb3e7_a20e_8499_5d29,
    0xbcdd_0ba1_f2aa_03f4,
    0x41d0_9939_773d_b37a,
    0x7049_ed7b_c255_a1c5,
    0xe40d_4f22_ca9d_640f,
    0xd9ed_3b78_3bc0_61c7,
    0x2b72_c433_35f9_9ee2,
    0x4754_c5fc_0f89_3544,
    0xf07a_d49f_ef73_bd96,
    0x4924_ce91_6b6f_2870,
    0xbcb6_25f0_5340_2a98,
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn meters(c: &SqlCluster) -> String {
    let fe: Vec<_> = c.frontends.iter().map(|f| &f.cpu).collect();
    let st: Vec<_> = c.storages.iter().map(|s| &s.cpu).collect();
    format!("{fe:?} {st:?}")
}

fn paper_cluster() -> SqlCluster {
    let mut c = SqlCluster::new(catalog(), ClusterConfig::default());
    c.bulk_load(
        "kv",
        (0..40i64).map(|k| vec![k.into(), payload(256 + k as u64, k as u64)]),
    )
    .unwrap();
    c
}

fn show<T: std::fmt::Debug>(r: &StoreResult<T>) -> String {
    format!("{r:?}")
}

#[test]
fn execute_and_execute_cached_give_identical_pinned_receipts() {
    let corpus = corpus();
    assert_eq!(corpus.len(), PINNED.len());
    let mut text = paper_cluster();
    let mut cached = paper_cluster();
    let mut mismatched = Vec::new();
    for (i, (sql, params)) in corpus.iter().enumerate() {
        let now = SimTime::from_nanos(1_000_000 * (i as u64 + 1));
        let by_text = show(&text.execute(sql, params, now));
        let stmt = cached.prepare_cached(sql).unwrap();
        let by_cached = show(&cached.execute_cached(&stmt, params, now));
        assert_eq!(by_text, by_cached, "statement {i} `{sql}`: receipts differ");
        assert_eq!(
            meters(&text),
            meters(&cached),
            "statement {i} `{sql}`: CPU meters differ"
        );
        let digest = fnv1a(&by_text);
        if digest != PINNED[i] {
            mismatched.push(format!("  {i:2} {digest:#018x} `{sql}` -> {by_text}"));
        }
    }
    assert!(
        mismatched.is_empty(),
        "receipts moved from their pins:\n{}",
        mismatched.join("\n")
    );
}

/// The pins are sensitive: one more row in the store changes a scan's
/// receipt and its digest.
#[test]
fn a_changed_receipt_misses_its_pin() {
    let mut c = paper_cluster();
    let before = show(&c.execute("SELECT COUNT(*) FROM kv", &[], SimTime::ZERO));
    c.execute(
        "REPLACE INTO kv VALUES (?, ?)",
        &[99.into(), payload(1, 1)],
        SimTime::ZERO,
    )
    .unwrap();
    let after = show(&c.execute("SELECT COUNT(*) FROM kv", &[], SimTime::ZERO));
    assert_ne!(fnv1a(&before), fnv1a(&after));
}
