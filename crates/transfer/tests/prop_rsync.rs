//! Property tests: the rsync round trip is the identity, for arbitrary
//! basis/target pairs and block sizes.

use proptest::prelude::*;
use transfer::syncpop::{mutate, MutationKind, SyncPopulation, SyncPopulationConfig};
use transfer::{
    apply_delta, compute_delta, md5, DeltaOp, FileGen, Md5, RsyncWirePlan, Signature,
    DEFAULT_BLOCK_SIZE,
};

/// Arbitrary single mutations for history-driven tests: a kind selector
/// plus two free parameters, mapped onto the enum's fields.
fn mutation_strategy() -> impl Strategy<Value = MutationKind> {
    (0u8..5, 0usize..24_000, 1usize..8192).prop_map(|(kind, a, b)| match kind {
        0 => MutationKind::Edit { edits: 1 + a % 32 },
        1 => MutationKind::Append {
            bytes: 1 + a % 4096,
        },
        2 => MutationKind::Rewrite { offset: a, len: b },
        3 => MutationKind::Truncate { new_len: a },
        _ => MutationKind::Churn {
            new_len: a % 12_000,
        },
    })
}

/// The wire cost the plan must report for a concrete delta: 5 bytes framing
/// per op (+ the payload for literals) plus the 40-byte trailer — recomputed
/// here from the op list, independently of `Delta::wire_bytes`.
fn expected_delta_wire_bytes(ops: &[DeltaOp]) -> u64 {
    ops.iter()
        .map(|op| match op {
            DeltaOp::Literal(v) => 5 + v.len() as u64,
            DeltaOp::Copy { .. } => 5,
        })
        .sum::<u64>()
        + 40
}

/// FNV-1a over an op list: a copy is a 0 tag and its block index, a literal
/// a 1 tag, its length and its bytes.
fn fnv_ops(ops: &[DeltaOp]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for op in ops {
        match op {
            DeltaOp::Copy { index } => {
                eat(&[0]);
                eat(&index.to_le_bytes());
            }
            DeltaOp::Literal(v) => {
                eat(&[1]);
                eat(&(v.len() as u64).to_le_bytes());
                eat(v);
            }
        }
    }
    h
}

/// Deltas of a 1 MiB desktop-mix population (seed 2026, three files):
/// round 0 against an empty basis, then every change of rounds 1–4 against
/// its basis. Each row is `(round, file, copies, literal bytes, wire bytes,
/// FNV of the ops)`, recorded with the byte-at-a-time matcher that hashed
/// every window with its own `Md5::digest`; any change to the scan's
/// matching order or to a digest shows up here.
#[test]
fn golden_deltas_of_a_sync_population() {
    const GOLDEN: [(u32, usize, usize, u64, u64, u64); 12] = [
        (0, 0, 0, 1048576, 1048621, 0xa80e872b6882a86a),
        (0, 1, 0, 1048576, 1048621, 0x4ab17e95bc9f3ca5),
        (0, 2, 0, 1048576, 1048621, 0x4d677803075c9f0d),
        (1, 0, 0, 1571163, 1571208, 0x6e3311848c710ca5),
        (1, 1, 492, 40960, 43555, 0xcca51f942d23bc1a),
        (1, 2, 505, 14336, 16936, 0xdb9c9ecb9974f9f3),
        (2, 0, 751, 34816, 38696, 0x7728eb6b3c129713),
        (2, 1, 506, 12288, 14863, 0x79448ea7e67f9b03),
        (2, 2, 508, 8192, 10777, 0x25b47356dcf33780),
        (3, 2, 512, 1747, 4352, 0xceed43ff66353c5a),
        (4, 0, 767, 5523, 9403, 0xd5c5109d350135b8),
        (4, 1, 509, 6144, 8744, 0x2e959151c3e12fda),
    ];
    let cfg = SyncPopulationConfig {
        files: 3,
        file_len: 1 << 20,
        ..SyncPopulationConfig::default()
    };
    let mut pop = SyncPopulation::new(2026, cfg);
    let row = |round, file, basis: &[u8], target: &[u8]| {
        let d = compute_delta(&Signature::compute(basis, DEFAULT_BLOCK_SIZE), target);
        (
            round,
            file,
            d.copy_count(),
            d.literal_bytes(),
            d.wire_bytes(),
            fnv_ops(&d.ops),
        )
    };
    let mut rows: Vec<_> = (0..pop.len())
        .map(|i| row(0, i, &[], pop.file(i)))
        .collect();
    for _ in 0..4 {
        for c in pop.advance() {
            rows.push(row(pop.round(), c.file, &c.basis, pop.file(c.file)));
        }
    }
    assert_eq!(rows, GOLDEN);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// patch(basis, delta(basis, target)) == target — the fundamental
    /// correctness property of the rsync algorithm.
    #[test]
    fn round_trip_identity(
        basis in prop::collection::vec(any::<u8>(), 0..8192),
        target in prop::collection::vec(any::<u8>(), 0..8192),
        block_size in 1usize..2048,
    ) {
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, &target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(rebuilt, target);
    }

    /// Round trip over structured (generated + mutated) files, which have
    /// far more block matches than independent random buffers.
    #[test]
    fn round_trip_similar_files(
        seed in any::<u64>(),
        len in 0usize..40_000,
        edits in 0usize..20,
        append in 0usize..2000,
        block_size in prop::sample::select(vec![128usize, 512, 2048, 8192]),
    ) {
        let g = FileGen::new(seed);
        let basis = g.random_file(len);
        let target = g.similar_file(&basis, edits, append);
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, &target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(md5::file_digest(&rebuilt), delta.target_digest);
        prop_assert_eq!(rebuilt, target);
    }

    /// Truncation: syncing any prefix of the basis back over the basis is
    /// still the identity, and a truncated target never costs more literal
    /// bytes than its own length.
    #[test]
    fn round_trip_truncated_target(
        seed in any::<u64>(),
        len in 1usize..30_000,
        keep_permille in 0usize..=1000,
        block_size in prop::sample::select(vec![128usize, 512, 2048]),
    ) {
        let g = FileGen::new(seed);
        let basis = g.random_file(len);
        let target = &basis[..len * keep_permille / 1000];
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(&rebuilt[..], target);
        prop_assert!(delta.literal_bytes() <= target.len() as u64);
    }

    /// Pure append: the tail beyond the basis is the only new content, so
    /// the delta's literal payload is bounded by the appended bytes plus at
    /// most one partial block of resynchronization slack.
    #[test]
    fn round_trip_pure_append(
        seed in any::<u64>(),
        len in 0usize..30_000,
        append in 0usize..4000,
        block_size in prop::sample::select(vec![128usize, 512, 2048]),
    ) {
        let g = FileGen::new(seed);
        let basis = g.random_file(len);
        let mut target = basis.clone();
        target.extend(g.random_file(append));
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, &target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(md5::file_digest(&rebuilt), delta.target_digest);
        prop_assert_eq!(rebuilt, target);
        prop_assert!(
            delta.literal_bytes() <= (append + block_size) as u64,
            "append {} of {} literal bytes at block {}",
            append, delta.literal_bytes(), block_size
        );
    }

    /// Random edits + truncation + append combined — the messy real-world
    /// shape of a re-uploaded file — still round-trips exactly.
    #[test]
    fn round_trip_edit_truncate_append(
        seed in any::<u64>(),
        len in 1usize..30_000,
        edits in 0usize..16,
        keep_permille in 0usize..=1000,
        append in 0usize..3000,
        block_size in prop::sample::select(vec![128usize, 512, 2048, 8192]),
    ) {
        let g = FileGen::new(seed);
        let basis = g.random_file(len);
        let edited = g.similar_file(&basis, edits, 0);
        let mut target = edited[..edited.len() * keep_permille / 1000].to_vec();
        target.extend(g.random_file(append));
        let sig = Signature::compute(&basis, block_size);
        let delta = compute_delta(&sig, &target);
        let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
        prop_assert_eq!(md5::file_digest(&rebuilt), delta.target_digest);
        prop_assert_eq!(rebuilt, target);
    }

    /// The delta never carries more literal payload than the target itself,
    /// and the wire plan's delta bytes dominate the literal payload.
    #[test]
    fn delta_is_bounded(
        seed in any::<u64>(),
        len in 0usize..20_000,
        block_size in prop::sample::select(vec![512usize, 2048]),
    ) {
        let g = FileGen::new(seed);
        let target = g.random_file(len);
        let sig = Signature::empty(block_size);
        let delta = compute_delta(&sig, &target);
        prop_assert!(delta.literal_bytes() <= len as u64);
        let plan = RsyncWirePlan::exact(&[], &target, block_size);
        prop_assert!(plan.delta_bytes >= delta.literal_bytes());
        prop_assert_eq!(plan, RsyncWirePlan::fresh(len as u64));
        prop_assert_eq!(RsyncWirePlan::from_parts(&sig, &delta), plan);
    }

    /// Arbitrary mutation histories (edit/append/rewrite/truncate/churn
    /// sequences) driven through the same `mutate` the sync populations use:
    /// every step's signature → delta → patch round trip is the identity,
    /// `target_digest` matches the reconstruction, and the exact wire plan's
    /// byte accounting agrees with an independent recount of the op list.
    #[test]
    fn round_trip_mutation_history(
        seed in any::<u64>(),
        len in 0usize..16_384,
        history in prop::collection::vec(mutation_strategy(), 1..6),
        block_size in prop::sample::select(vec![512usize, 2048, 8192]),
    ) {
        let mut basis = FileGen::new(seed).random_file(len);
        for (step, kind) in history.iter().enumerate() {
            let target = mutate(&basis, kind, seed ^ (step as u64) << 32);
            let sig = Signature::compute(&basis, block_size);
            let delta = compute_delta(&sig, &target);
            let rebuilt = apply_delta(&basis, block_size, &delta).unwrap();
            prop_assert_eq!(md5::file_digest(&rebuilt), delta.target_digest);
            prop_assert_eq!(&rebuilt, &target);
            let plan = RsyncWirePlan::exact(&basis, &target, block_size);
            prop_assert_eq!(RsyncWirePlan::from_parts(&sig, &delta), plan);
            prop_assert_eq!(plan.delta_bytes, expected_delta_wire_bytes(&delta.ops));
            prop_assert_eq!(plan.signature_bytes, 32 + sig.block_count() as u64 * 24);
            prop_assert_eq!(
                plan.total_bytes(),
                plan.handshake_bytes + plan.signature_bytes + plan.delta_bytes + plan.ack_bytes
            );
            basis = target;
        }
    }

    /// `SyncPopulation::advance` histories: every change it reports carries
    /// a basis that round-trips to the file's new content, with exact wire
    /// accounting at each round.
    #[test]
    fn round_trip_sync_population_rounds(
        seed in any::<u64>(),
        rounds in 1u32..4,
        block_size in prop::sample::select(vec![512usize, 2048]),
    ) {
        let cfg = SyncPopulationConfig {
            files: 3,
            file_len: 4096,
            max_edits: 8,
            max_append: 1024,
            max_rewrite: 1024,
            ..SyncPopulationConfig::default()
        };
        let mut pop = SyncPopulation::new(seed, cfg);
        for _ in 0..rounds {
            for c in pop.advance() {
                let target = pop.file(c.file);
                let sig = Signature::compute(&c.basis, block_size);
                let delta = compute_delta(&sig, target);
                let rebuilt = apply_delta(&c.basis, block_size, &delta).unwrap();
                prop_assert_eq!(md5::file_digest(&rebuilt), delta.target_digest);
                prop_assert_eq!(&rebuilt[..], target);
                let plan = RsyncWirePlan::exact(&c.basis, target, block_size);
                prop_assert_eq!(plan.delta_bytes, expected_delta_wire_bytes(&delta.ops));
                prop_assert_eq!(plan.delta_bytes, delta.wire_bytes());
            }
        }
    }

    /// Streaming MD5 agrees with one-shot MD5 under arbitrary chunking:
    /// `update` over any split points, repeated ones (empty pieces)
    /// included, for lengths that cross many block and padding boundaries.
    #[test]
    fn md5_chunking_invariance(
        data in prop::collection::vec(any::<u8>(), 0..10_000),
        splits in prop::collection::vec(any::<usize>(), 0..16),
    ) {
        let mut points: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        points.sort_unstable();
        let mut ctx = Md5::new();
        let mut start = 0;
        for p in points {
            ctx.update(&data[start..p]);
            start = p;
        }
        ctx.update(&data[start..]);
        prop_assert_eq!(ctx.finalize(), Md5::digest(&data));
    }

    /// The lane kernel agrees with one-shot MD5 chunk by chunk, for every
    /// count of full chunks (fewer than a lane group included), short final
    /// chunks, and chunk sizes on both sides of the 55/56/64 padding
    /// boundaries.
    #[test]
    fn digest_chunks_equals_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..20_000),
        chunk_size in (any::<bool>(), 1usize..9000, prop::sample::select(vec![55usize, 56, 63, 64, 119, 120]))
            .prop_map(|(boundary, any_size, near_padding)| if boundary { near_padding } else { any_size }),
    ) {
        let one_shot: Vec<[u8; 16]> = data.chunks(chunk_size).map(Md5::digest).collect();
        prop_assert_eq!(md5::digest_chunks(&data, chunk_size), one_shot);
    }
}
