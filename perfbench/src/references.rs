//! Reference outputs recorded for chosen workload seeds.
//!
//! `references.json` holds, per workload and seed, the digest and size of
//! the committed result store and the run's exact counts. A run on a
//! recorded seed must reproduce them byte for byte and count for count;
//! anything else is a semantics change, reported as a failure rather than a
//! speed result. Each workload records a primary seed and a held-out seed,
//! so a claim tuned on one can be re-checked on the other.

use std::collections::BTreeMap;

use serde::{Deserialize, Value};

const REFERENCES: &str = include_str!("../references.json");

/// What a run on a recorded seed must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// FNV-1a 64 digest of the committed store's bytes, as 16 hex digits.
    pub store_fnv64: String,
    /// Length of the committed store in bytes.
    pub store_bytes: u64,
    /// Exact counts by metric name.
    pub counts: BTreeMap<String, u64>,
}

/// Keeps the parsed document as a plain value tree.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Raw(value.clone()))
    }
}

/// The reference for `workload` at `seed`, if one is recorded.
///
/// # Panics
///
/// If the compiled-in `references.json` is malformed: it ships with the
/// benchmark, so a broken file is a bug in the benchmark itself.
pub fn lookup(workload: &str, seed: u64) -> Option<Reference> {
    let Raw(doc) = serde_json::from_str(REFERENCES).expect("references.json is valid JSON");
    let entry = doc.get(workload)?.get(&seed.to_string())?;
    Some(
        parse(entry)
            .unwrap_or_else(|field| panic!("references.json: {workload} seed {seed}: bad {field}")),
    )
}

/// One recorded entry, or the name of its first malformed field.
fn parse(entry: &Value) -> Result<Reference, String> {
    let Some(Value::Map(pairs)) = entry.get("counts") else {
        return Err("counts".into());
    };
    let counts = pairs
        .iter()
        .map(|(name, v)| v.as_u64().map(|v| (name.clone(), v)).ok_or(name.clone()))
        .collect::<Result<_, _>>()?;
    Ok(Reference {
        store_fnv64: entry
            .get("store_fnv64")
            .and_then(Value::as_str)
            .ok_or("store_fnv64")?
            .to_string(),
        store_bytes: entry
            .get("store_bytes")
            .and_then(Value::as_u64)
            .ok_or("store_bytes")?,
        counts,
    })
}

/// FNV-1a 64 over `bytes`, as 16 hex digits (the hash the campaign engine
/// keys its cells with).
pub fn fnv64(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    format!("{hash:016x}")
}
