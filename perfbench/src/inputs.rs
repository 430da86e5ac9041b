//! Seeded input generation and the per-workload night plans.
//!
//! Every byte the benchmark ships is a pure function of `(seed, night,
//! job, KB index)`, so the coordinator side and the fleet child build the
//! same input independently: the child regenerates the records at a
//! `ShipInput`'s `offset_kb` and compares them with the bytes it was sent.

/// The word `wordcount` counts (the program registered by
/// `cwc_tasks::standard_registry`).
pub const TARGET: &[u8] = b"lowes";

/// Records are exactly one KB and end in a newline, so the target word
/// never straddles a record and therefore never a partition boundary
/// (partitions are cut at KB granularity).
pub const RECORD: usize = 1024;

/// The coordinator's per-connection write backlog cap
/// (`WRITE_BACKLOG_CAP` in `cwc-server`'s live driver). A partition above
/// it may get a healthy phone dropped, depending on how fast the socket
/// drains, so such partitions are not measured: they run only in the
/// defect probe ([`bulk_probe_nights`]), each alone on one connection.
pub const BACKLOG_CAP_BYTES: u64 = 4 * 1024 * 1024;

/// Whether a partition of `kb` KB exceeds [`BACKLOG_CAP_BYTES`]: the only
/// partitions the coordinator's known backlog-cap defect may lose.
pub fn oversize(kb: u64) -> bool {
    kb * RECORD as u64 > BACKLOG_CAP_BYTES
}

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mixes two words into one seed.
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.rotate_left(32) ^ 0x6377_635f_6265_6e63).next_u64()
}

/// The generation key of one job's input.
pub fn job_key(seed: u64, night: u64, job: u32) -> u64 {
    mix(mix(seed, night), u64::from(job))
}

/// Byte alphabet: mostly letters, some spaces.
const ALPHABET: &[u8; 32] = b"abcdefghijklmnopqrstuvwxyz      ";

/// Writes record `index` of job `key` into `out` (exactly [`RECORD`]
/// bytes): lowercase text with zero to three copies of [`TARGET`] at
/// seeded positions, ending in a newline.
pub fn fill_record(key: u64, index: u64, out: &mut [u8]) {
    debug_assert_eq!(out.len(), RECORD);
    let mut rng = Rng::new(mix(key, index));
    for chunk in out.chunks_mut(8) {
        let bits = rng.next_u64().to_le_bytes();
        for (b, r) in chunk.iter_mut().zip(bits) {
            *b = ALPHABET[usize::from(r & 31)];
        }
    }
    let copies = rng.below(4);
    for _ in 0..copies {
        let at = rng.below((RECORD - 1 - TARGET.len()) as u64) as usize;
        out[at..at + TARGET.len()].copy_from_slice(TARGET);
    }
    out[RECORD - 1] = b'\n';
}

/// Records `from..from + count` of job `key`, concatenated.
pub fn records(key: u64, from: u64, count: u64) -> Vec<u8> {
    let mut out = vec![0u8; count as usize * RECORD];
    for (i, rec) in out.chunks_mut(RECORD).enumerate() {
        fill_record(key, from + i as u64, rec);
    }
    out
}

/// Whether `data` equals records `from..from + count` of job `key`,
/// checked one record at a time without materialising the whole range.
pub fn records_match(key: u64, from: u64, count: u64, data: &[u8]) -> bool {
    if data.len() as u64 != count * RECORD as u64 {
        return false;
    }
    let mut rec = [0u8; RECORD];
    data.chunks(RECORD).enumerate().all(|(i, got)| {
        fill_record(key, from + i as u64, &mut rec);
        got == rec
    })
}

/// One job of a live night.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDesc {
    /// Job id within the night.
    pub id: u32,
    /// Input size in KB (whole records).
    pub kb: u64,
    /// Atomic jobs are never split across phones.
    pub atomic: bool,
}

/// One live night: the jobs and how many phones serve them.
#[derive(Debug, Clone, PartialEq)]
pub struct NightPlan {
    /// The batch.
    pub jobs: Vec<JobDesc>,
    /// Connections the fleet child opens for this night.
    pub phones: usize,
}

/// `chatter` night sizes, in jobs: 250 to 8,000 in steps of about 2.4x.
/// The same mix on every run, so a run's figures never depend on which
/// batch sizes the seed drew; the seed decides only job sizes, atomicity
/// and bytes. An odd number of sizes puts the median first-chunk sample
/// inside the middle size, not on the edge between two sizes.
pub const CHATTER_NIGHTS: [usize; 5] = [1_400, 250, 3_400, 600, 8_000];

/// `bulk` partition draws per cycle: one per stratum of the log2 size
/// range [16, 24] (64 KiB .. 16 MiB), so every cycle covers the whole
/// range. The 12 strata up to 4 MiB (the backlog cap) are measured; the
/// 4 above it feed the defect probe.
pub const BULK_STRATA: u64 = 16;

/// The draw whose partitions above the backlog cap make up the defect
/// probe; no measured cycle reaches it.
const PROBE_CYCLE: u64 = u64::MAX;

/// The `chatter` night at position `night` of the run (the mix repeats
/// every [`CHATTER_NIGHTS`]`.len()` nights).
pub fn chatter_night(seed: u64, night: u64, phones: usize) -> NightPlan {
    let size = CHATTER_NIGHTS[(night % CHATTER_NIGHTS.len() as u64) as usize];
    let mut rng = Rng::new(mix(seed, night ^ 0x63_6861_7474));
    let jobs = (0..size as u32)
        .map(|id| JobDesc {
            id,
            kb: 1 + rng.below(4),
            atomic: id % 3 == 2,
        })
        .collect();
    NightPlan { jobs, phones }
}

/// The sizes (KB) of `bulk` cycle `cycle`: one log-uniform draw per
/// stratum, in seeded order.
pub fn bulk_cycle_sizes(seed: u64, cycle: u64) -> Vec<u64> {
    let mut rng = Rng::new(mix(seed, cycle ^ 0x6275_6c6b));
    let width = 8.0 / BULK_STRATA as f64;
    let mut sizes: Vec<u64> = (0..BULK_STRATA)
        .map(|s| {
            let log2_bytes = 16.0 + width * (s as f64 + rng.unit());
            (2f64.powf(log2_bytes) / RECORD as f64).round().max(1.0) as u64
        })
        .collect();
    for i in (1..sizes.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        sizes.swap(i, j);
    }
    sizes
}

/// One `bulk` cycle: its partitions up to the backlog cap (a dozen) as
/// one night of atomic jobs on `phones` phones, so each phone takes
/// several in a row and most partitions yield a turnaround sample.
pub fn bulk_cycle_nights(seed: u64, cycle: u64, phones: usize) -> Vec<NightPlan> {
    let jobs = bulk_cycle_sizes(seed, cycle)
        .into_iter()
        .filter(|&kb| !oversize(kb))
        .enumerate()
        .map(|(id, kb)| JobDesc {
            id: id as u32,
            kb,
            atomic: true,
        })
        .collect();
    vec![NightPlan { jobs, phones }]
}

/// The defect probe: the partitions above the backlog cap of one seeded
/// draw (4 MiB .. 16 MiB), each alone on one phone, so a loss cannot
/// take other partitions down with it.
pub fn bulk_probe_nights(seed: u64) -> Vec<NightPlan> {
    bulk_cycle_sizes(seed, PROBE_CYCLE)
        .into_iter()
        .filter(|&kb| oversize(kb))
        .map(|kb| NightPlan {
            jobs: vec![JobDesc {
                id: 0,
                kb,
                atomic: true,
            }],
            phones: 1,
        })
        .collect()
}

/// FNV-1a digest, for comparing generated inputs.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn night_digest(seed: u64) -> u64 {
        let plan = chatter_night(seed, 0, 2);
        let mut h = 0u64;
        for job in &plan.jobs {
            let bytes = records(job_key(seed, 0, job.id), 0, job.kb);
            h = mix(h, digest(&bytes) ^ job.kb ^ u64::from(job.atomic));
        }
        h
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(night_digest(7), night_digest(7));
        assert_eq!(bulk_cycle_sizes(7, 3), bulk_cycle_sizes(7, 3));
        assert_eq!(bulk_cycle_nights(7, 3, 2), bulk_cycle_nights(7, 3, 2));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(night_digest(7), night_digest(8));
        assert_ne!(bulk_cycle_sizes(7, 0), bulk_cycle_sizes(8, 0));
    }

    #[test]
    fn records_never_split_the_target_word() {
        let key = job_key(1, 2, 3);
        let data = records(key, 0, 64);
        for rec in data.chunks(RECORD) {
            assert_eq!(rec[RECORD - 1], b'\n');
        }
        assert!(records_match(key, 10, 4, &data[10 * RECORD..14 * RECORD]));
        let mut bad = data[..RECORD].to_vec();
        bad[5] ^= 1;
        assert!(!records_match(key, 0, 1, &bad));
        assert!(!records_match(key, 1, 1, &data[..RECORD]));
    }

    #[test]
    fn bulk_measures_up_to_the_cap_and_probes_above_it() {
        let sizes = bulk_cycle_sizes(5, 0);
        assert_eq!(sizes.len() as u64, BULK_STRATA);
        assert!(sizes.iter().all(|&kb| (64..=16 * 1024).contains(&kb)));
        assert!(sizes.iter().any(|&kb| kb > 12 * 1024), "{sizes:?}");
        let nights = bulk_cycle_nights(5, 0, 2);
        assert_eq!(nights.len(), 1);
        assert_eq!(nights[0].jobs.len(), 12);
        assert!(nights[0].jobs.iter().all(|j| !oversize(j.kb) && j.atomic));
        let probe = bulk_probe_nights(5);
        assert_eq!(probe.len(), 4);
        for n in &probe {
            assert_eq!((n.jobs.len(), n.phones), (1, 1));
            assert!(oversize(n.jobs[0].kb));
        }
        assert!(probe.iter().any(|n| n.jobs[0].kb > 11 * 1024));
        assert_eq!(probe, bulk_probe_nights(5));
    }
}
