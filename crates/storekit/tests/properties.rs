//! Property checks for the storage substrate: MVCC visibility, key-encoding
//! order preservation, row codec totality, and SQL engine equivalence
//! against a naive reference implementation.
//!
//! Each property runs a few hundred seeded splitmix64 cases; a failure
//! names the case seed, so it replays on its own.

use std::collections::HashMap;
use storekit::kv::{encode_key_datum, KvEngine};
use storekit::row::Row;
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::sql::exec::MemStore;
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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// An integer biased towards the edges of its type and small values.
    fn int(&mut self) -> i64 {
        match self.below(4) {
            0 => *[i64::MIN, -1, 0, 1, i64::MAX]
                .get(self.below(5) as usize)
                .unwrap(),
            1 => self.range(-300, 300),
            _ => self.next() as i64,
        }
    }
}

/// Run `property` over `CASES` seeded cases, naming the failing seed.
fn for_cases(salt: u64, mut property: impl FnMut(&mut Rng) -> Result<(), String>) {
    for case in 0..CASES {
        let seed = salt ^ (case << 20);
        if let Err(e) = property(&mut Rng(seed)) {
            panic!("case seed {seed:#x}: {e}");
        }
    }
}

fn datum(rng: &mut Rng) -> Datum {
    const TEXT: &[u8] = b"abcXYZ019 _'-";
    match rng.below(7) {
        0 => Datum::Null,
        1 => Datum::Bool(rng.below(2) == 1),
        2 => Datum::Int(rng.int()),
        3 => loop {
            let x = f64::from_bits(rng.next());
            if x.is_finite() {
                break Datum::Float(x);
            }
        },
        4 => {
            let len = rng.below(41);
            Datum::Text(
                (0..len)
                    .map(|_| TEXT[rng.below(TEXT.len() as u64) as usize] as char)
                    .collect(),
            )
        }
        5 => Datum::Bytes(rng.bytes(63)),
        _ => Datum::Payload {
            len: rng.below(1_000_000),
            seed: rng.next(),
        },
    }
}

fn key_of(d: &Datum) -> Vec<u8> {
    let mut k = Vec::new();
    encode_key_datum(&mut k, d);
    k
}

/// Row encode/decode is a bijection on well-formed rows.
#[test]
fn row_codec_round_trips() {
    for_cases(0x0c0d_ec00, |rng| {
        let row = Row((0..rng.below(12)).map(|_| datum(rng)).collect());
        let decoded = Row::decode(&row.encode()).map_err(|e| e.to_string())?;
        (decoded == row)
            .then_some(())
            .ok_or_else(|| format!("{row:?} decoded as {decoded:?}"))
    });
}

/// Decoding never panics on arbitrary bytes — it returns Ok or Err.
#[test]
fn row_decode_is_total() {
    for_cases(0x0dec_0de0, |rng| {
        let mut bytes = rng.bytes(255);
        // Half the cases start from a valid encoding with one bit flipped,
        // so decoding gets past the header.
        if rng.below(2) == 0 {
            bytes = Row((0..rng.below(4)).map(|_| datum(rng)).collect()).encode();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
        }
        let _ = Row::decode(&bytes);
        Ok(())
    });
}

/// Key encoding preserves value order for ints.
#[test]
fn int_key_order() {
    for_cases(0x1e7_0de7, |rng| {
        let (a, b) = (rng.int(), rng.int());
        let (ka, kb) = (key_of(&Datum::Int(a)), key_of(&Datum::Int(b)));
        (a.cmp(&b) == ka.cmp(&kb))
            .then_some(())
            .ok_or_else(|| format!("{a} vs {b}: keys order {:?}", ka.cmp(&kb)))
    });
}

/// Key encoding preserves value order for text, embedded NULs included.
#[test]
fn text_key_order() {
    for_cases(0x7e47_0de7, |rng| {
        let text = |rng: &mut Rng| -> String {
            (0..rng.below(25))
                .map(|_| (rng.below(4) as u8 * 0x21 % 0x80) as char)
                .collect()
        };
        let a = text(rng);
        // Every other case compares a string with one of its extensions.
        let b = if rng.below(2) == 0 {
            format!("{a}{}", text(rng))
        } else {
            text(rng)
        };
        let (ka, kb) = (
            key_of(&Datum::Text(a.clone())),
            key_of(&Datum::Text(b.clone())),
        );
        (a.as_bytes().cmp(b.as_bytes()) == ka.cmp(&kb))
            .then_some(())
            .ok_or_else(|| format!("{a:?} vs {b:?}: keys order {:?}", ka.cmp(&kb)))
    });
}

/// MVCC: a snapshot taken at version v always sees exactly the state as of
/// v, regardless of later writes or deletes.
#[test]
fn mvcc_snapshots_are_stable() {
    for_cases(0x5aa9_5407, |rng| {
        let mut kv = KvEngine::new();
        let mut state: HashMap<u8, Vec<u8>> = HashMap::new();
        let mut checkpoints: Vec<(u64, HashMap<u8, Vec<u8>>)> = Vec::new();
        for _ in 0..1 + rng.below(60) {
            let key = rng.below(16) as u8;
            let version = if rng.below(4) == 0 {
                state.remove(&key);
                kv.delete(vec![key])
            } else {
                let value = rng.bytes(8);
                state.insert(key, value.clone());
                kv.put(vec![key], value)
            };
            checkpoints.push((version, state.clone()));
        }
        for (version, snapshot) in &checkpoints {
            for key in 0u8..16 {
                let got = kv.get_at(&[key], *version).map(|v| v.value.to_vec());
                if got.as_ref() != snapshot.get(&key) {
                    return Err(format!(
                        "key {key} at v{version}: {got:?} vs {:?}",
                        snapshot.get(&key)
                    ));
                }
            }
        }
        Ok(())
    });
}

/// SQL engine vs a naive in-memory table: point reads, indexed reads,
/// updates and deletes agree.
#[test]
fn sql_engine_matches_reference() {
    for_cases(0x5a1_e46e, |rng| {
        let mut catalog = Catalog::new();
        catalog.add(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("grp", ColumnType::Int),
                    ColumnDef::new("val", ColumnType::Int),
                ],
                "id",
                &["grp"],
            )
            .unwrap(),
        );
        let mut store = MemStore::new(catalog);
        let mut reference: HashMap<i64, (i64, i64)> = HashMap::new();
        let run = |store: &mut MemStore, sql: &str, params: &[Datum]| {
            store.run(sql, params).map_err(|e| format!("{sql}: {e}"))
        };
        for _ in 0..1 + rng.below(80) {
            let (id, grp, val) = (rng.range(0, 24), rng.range(0, 6), rng.range(0, 256));
            match rng.below(3) {
                0 => {
                    run(
                        &mut store,
                        "REPLACE INTO t VALUES (?, ?, ?)",
                        &[id.into(), grp.into(), val.into()],
                    )?;
                    reference.insert(id, (grp, val));
                }
                1 => {
                    run(&mut store, "DELETE FROM t WHERE id = ?", &[id.into()])?;
                    reference.remove(&id);
                }
                _ => {
                    run(
                        &mut store,
                        "UPDATE t SET val = ? WHERE grp = ?",
                        &[val.into(), grp.into()],
                    )?;
                    for (_, v) in reference.values_mut().filter(|(g, _)| *g == grp) {
                        *v = val;
                    }
                }
            }
            // Point read agreement for the touched id.
            let got = run(
                &mut store,
                "SELECT grp, val FROM t WHERE id = ?",
                &[id.into()],
            )?;
            let expect: Vec<Row> = reference
                .get(&id)
                .map(|&(g, v)| Row(vec![Datum::Int(g), Datum::Int(v)]))
                .into_iter()
                .collect();
            if got.rows != expect {
                return Err(format!("point read of {id}: {:?} vs {expect:?}", got.rows));
            }
            // Indexed read agreement for the touched group.
            let got = run(
                &mut store,
                "SELECT COUNT(*) FROM t WHERE grp = ?",
                &[grp.into()],
            )?;
            let expect = reference.values().filter(|(g, _)| *g == grp).count() as i64;
            if got.rows != vec![Row(vec![Datum::Int(expect)])] {
                return Err(format!("count of group {grp}: {:?} vs {expect}", got.rows));
            }
        }
        Ok(())
    });
}
