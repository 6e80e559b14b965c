//! The metric catalogue: every end-to-end metric an untraced run prints
//! and every per-layer metric a traced run prints, with units. These
//! lists and `BENCHMARK.json` must agree (checked by a test).

/// End-to-end metrics, printed by every untraced run of every workload.
/// Times are normalized to the host-speed reference (`reference.rs`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_ref_s", "1/ref_s"),
    ("primary_mean_ref_us", "ref_us"),
    ("primary_tail_ref_us", "ref_us"),
    ("secondary_mean_ref_us", "ref_us"),
    ("secondary_tail_ref_us", "ref_us"),
];

/// Per-layer metrics, printed by every traced run. A workload that does
/// not call a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Attribution shares of the traced end-to-end time, one per layer.
    ("share.crypto.mac", "frac"),
    ("share.crypto.otp", "frac"),
    ("share.core.counters", "frac"),
    ("share.core.store", "frac"),
    ("share.core.concurrent", "frac"),
    ("share.core.persist", "frac"),
    ("share.core.proof", "frac"),
    ("share.core.functional", "frac"),
    ("share.trace", "frac"),
    ("share.core.metadata", "frac"),
    ("share.sim", "frac"),
    ("share.unattributed", "frac"),
    ("tracing.overhead", "frac"),
    // core::concurrent
    ("concurrent.speedup_2v1", "x"),
    ("concurrent.recombine.share", "frac"),
    ("concurrent.shard_imbalance", "x"),
    // core::counters
    ("counters.encode.calls_per_op", "1/op"),
    ("counters.encode.ns", "ns"),
    ("counters.encode.share", "frac"),
    ("counters.increment.calls_per_op", "1/op"),
    ("counters.increment.ns", "ns"),
    // crypto::mac
    ("crypto.mac.calls_per_op", "1/op"),
    ("crypto.mac.ns", "ns"),
    ("crypto.mac.share", "frac"),
    // crypto::otp
    ("crypto.otp.calls_per_op", "1/op"),
    ("crypto.otp.ns", "ns"),
    ("crypto.otp.share", "frac"),
    // core::functional
    ("functional.reencrypt.per_write", "1/op"),
    ("functional.unattributed.share", "frac"),
    // core::store
    ("store.lookups_per_op", "1/op"),
    ("store.lookup.ns", "ns"),
    // core::persist
    ("persist.snapshot_decode_ms", "ms"),
    ("persist.wal_decode_ms", "ms"),
    ("persist.verify_ms", "ms"),
    ("persist.replayed_txns", "count"),
    ("persist.verified_lines", "count"),
    ("persist.mode", "code"),
    ("persist.unattributed.share", "frac"),
    // core::proof
    ("proof.prove_us", "us"),
    ("proof.codec_us", "us"),
    ("proof.verify_us", "us"),
    ("proof.bytes", "B"),
    ("proof.mac_computes", "count"),
    // trace
    ("trace.record_ns", "ns"),
    // core::metadata
    ("metadata.access_ns", "ns"),
    ("metadata.cache_hit_rate", "frac"),
    ("metadata.traffic_per_access", "1/op"),
    ("metadata.overflows_per_minstr", "1/Minstr"),
    // sim
    ("sim.rest.share", "frac"),
    ("sim.dram_accesses_per_kinstr", "1/kinstr"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The names between `"name": "` quotes in one section of the file.
    fn names_in(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry
                        .find(&format!("\"{key}\": \""))
                        .expect("field present")
                        + key.len()
                        + 5;
                    entry[at..]
                        .split('"')
                        .next()
                        .expect("closing quote")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        assert_eq!(names_in(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
