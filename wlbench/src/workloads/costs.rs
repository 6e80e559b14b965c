//! Call counts and unit costs of the functional plane (`SecureMemory`
//! reads and writes, alone or inside `ShardedMemory` shards), and the
//! attribution they give.

use morphtree_core::functional::CryptoOps;

use crate::spans::Attribution;
use crate::Outcome;

/// Unit costs measured by the probes, in ns per call.
pub struct UnitCosts {
    pub encode_ns: f64,
    pub increment_ns: f64,
    pub mac_ns: f64,
    pub otp_ns: f64,
    pub lookup_ns: f64,
}

/// Per-layer call counts of a stretch of reads and writes on a
/// `SecureMemory` (or the shards of a `ShardedMemory`), derived from
/// `CryptoOps` deltas and the tree geometry:
///
/// - a read decrypts once; an overflow re-encryption of a data line
///   decrypts, encrypts and MACs once, so data re-encryptions are
///   `otp_decrypts - reads`;
/// - data-line MACs are `reads + writes + data re-encryptions`; every
///   other MAC is a counter-line MAC, and each counter-line MAC follows
///   exactly one `encode_for_mac` of that line;
/// - a write increments one counter per level (`top + 1` increments);
/// - store lookups per op follow the read and write paths: a read makes
///   `2 * top + 4` lookups, a write `5 * top + 7`, a data re-encryption 4
///   and a counter-line repair 5.
pub struct OpCounts {
    pub reads: u64,
    pub writes: u64,
    pub macs: u64,
    pub otps: u64,
    pub encodes: u64,
    pub increments: u64,
    pub lookups: u64,
    pub reencryptions: u64,
}

impl OpCounts {
    pub fn derive(
        reads: u64,
        writes: u64,
        before: &CryptoOps,
        after: &CryptoOps,
        reencryptions: u64,
        top: usize,
    ) -> Self {
        let top = top as u64;
        let macs = after.mac_computes - before.mac_computes;
        let decrypts = after.otp_decrypts - before.otp_decrypts;
        let encrypts = after.otp_encrypts - before.otp_encrypts;
        let data_reencrypts = decrypts.saturating_sub(reads);
        let counter_repairs = reencryptions.saturating_sub(data_reencrypts);
        let data_macs = reads + writes + data_reencrypts;
        OpCounts {
            reads,
            writes,
            macs,
            otps: decrypts + encrypts,
            encodes: macs.saturating_sub(data_macs),
            increments: writes * (top + 1),
            lookups: reads * (2 * top + 4)
                + writes * (5 * top + 7)
                + data_reencrypts * 4
                + counter_repairs * 5,
            reencryptions,
        }
    }

    fn ops(&self) -> f64 {
        (self.reads + self.writes) as f64
    }

    /// Splits `total_ns` of op time, spent on one thread, into layer
    /// parts: calls x unit cost.
    pub fn attribute(&self, costs: &UnitCosts, total_ns: f64) -> Attribution {
        let mut a = Attribution::new(total_ns);
        a.add("crypto::mac", self.macs as f64 * costs.mac_ns);
        a.add("crypto::otp", self.otps as f64 * costs.otp_ns);
        a.add(
            "core::counters",
            self.encodes as f64 * costs.encode_ns + self.increments as f64 * costs.increment_ns,
        );
        a.add("core::store", self.lookups as f64 * costs.lookup_ns);
        a
    }

    /// Records the per-layer metrics these counts and costs give.
    pub fn report(&self, out: &mut Outcome, costs: &UnitCosts, a: &Attribution) {
        let ops = self.ops();
        out.layer("share.crypto.mac", a.share("crypto::mac"));
        out.layer("share.crypto.otp", a.share("crypto::otp"));
        out.layer("share.core.counters", a.share("core::counters"));
        out.layer("share.core.store", a.share("core::store"));
        out.layer("share.unattributed", a.unattributed_share());
        out.layer("counters.encode.calls_per_op", self.encodes as f64 / ops);
        out.layer("counters.encode.ns", costs.encode_ns);
        out.layer(
            "counters.encode.share",
            self.encodes as f64 * costs.encode_ns / a.total_ns(),
        );
        out.layer(
            "counters.increment.calls_per_op",
            self.increments as f64 / ops,
        );
        out.layer("counters.increment.ns", costs.increment_ns);
        out.layer("crypto.mac.calls_per_op", self.macs as f64 / ops);
        out.layer("crypto.mac.ns", costs.mac_ns);
        out.layer("crypto.mac.share", a.share("crypto::mac"));
        out.layer("crypto.otp.calls_per_op", self.otps as f64 / ops);
        out.layer("crypto.otp.ns", costs.otp_ns);
        out.layer("crypto.otp.share", a.share("crypto::otp"));
        out.layer(
            "functional.reencrypt.per_write",
            self.reencryptions as f64 / self.writes.max(1) as f64,
        );
        out.layer("functional.unattributed.share", a.unattributed_share());
        out.layer("store.lookups_per_op", self.lookups as f64 / ops);
        out.layer("store.lookup.ns", costs.lookup_ns);
    }
}
