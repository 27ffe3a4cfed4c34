//! Property tests for the persistence layer: cache-key stability,
//! event-log round trips, store path sanitization, and shard-log
//! merging.

use gnnunlock_engine::{
    fingerprint, fingerprint_fields, merge_shard_events, sanitize_tag, shard_events_file,
    DiskStore, Event, EventLog, JobKind, StageJob,
};
use proptest::prelude::*;
use std::path::Path;

/// Build a printable-ish string from raw bytes (lossy UTF-8), so the
/// generators exercise separators, dots, slashes and control bytes.
fn bytes_to_string(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn stage_job(kind_pick: usize, scheme: u64, bench: u64, k: usize, s: u64) -> StageJob {
    let kinds = [
        JobKind::Lock,
        JobKind::Synth,
        JobKind::Featurize,
        JobKind::Dataset,
        JobKind::TrainEpoch,
        JobKind::Train,
        JobKind::Classify,
        JobKind::Remove,
        JobKind::Verify,
        JobKind::Aggregate,
    ];
    StageJob {
        kind: kinds[kind_pick % kinds.len()],
        scheme: format!("scheme{scheme}"),
        benchmark: bench.is_multiple_of(2).then(|| format!("b{bench}")),
        key_bits: (!k.is_multiple_of(3)).then_some(k),
        seed: s.is_multiple_of(2).then_some(s),
        epoch: s.is_multiple_of(3).then_some((s / 3) as usize),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache keys are pure functions of the job spec: recomputing the
    /// fingerprint — as a separate process would — yields the same key,
    /// and any change to a field or the salt changes it.
    #[test]
    fn cache_keys_are_stable_and_sensitive(
        kind_pick in 0usize..10,
        scheme in any::<u64>(),
        bench in any::<u64>(),
        k in 1usize..512,
        s in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let job = stage_job(kind_pick, scheme, bench, k, s);
        let again = stage_job(kind_pick, scheme, bench, k, s);
        prop_assert_eq!(job.fingerprint(salt), again.fingerprint(salt));
        prop_assert_eq!(job.label(), again.label());
        // Salt sensitivity.
        prop_assert_ne!(job.fingerprint(salt), job.fingerprint(salt.wrapping_add(1)));
        // Field sensitivity: a different scheme is a different key.
        let mut other = job.clone();
        other.scheme.push('x');
        prop_assert_ne!(other.fingerprint(salt), job.fingerprint(salt));
    }

    /// Field-joined fingerprints never depend on how strings are
    /// concatenated: moving a boundary changes the hash.
    #[test]
    fn fingerprint_fields_separate_boundaries(
        a in prop::collection::vec(97u8..123, 1..8),
        b in prop::collection::vec(97u8..123, 1..8),
    ) {
        let a = bytes_to_string(&a);
        let b = bytes_to_string(&b);
        let joined = format!("{a}{b}");
        prop_assert_ne!(
            fingerprint_fields(&[&a, &b]),
            fingerprint_fields(&[joined.as_str()])
        );
    }

    /// Event records survive serialize → parse for arbitrary contents,
    /// including labels with quotes, newlines and control characters.
    /// (Ids are JSON numbers — exact below 2^53, far above any graph's
    /// job count; the generator covers the full realistic domain.)
    #[test]
    fn event_log_round_trips(
        variant in 0usize..6,
        id in 0usize..(1 << 53),
        label_bytes in prop::collection::vec(0u8..255, 0..24),
        text_bytes in prop::collection::vec(0u8..255, 0..24),
        n in any::<u64>(),
        flag in any::<bool>(),
        ms_millis in 0u64..10_000_000,
    ) {
        let label = bytes_to_string(&label_bytes);
        let text = bytes_to_string(&text_bytes);
        let n_us = (n % 1_000_000) as usize;
        let event = match variant {
            0 => Event::RunStarted { campaign: text, jobs: n_us, shape: n, resumed: flag },
            1 => Event::JobStarted { id, label },
            2 => Event::CacheHit { id, label, source: text },
            3 => Event::JobFinished {
                id,
                label,
                status: text,
                ms: ms_millis as f64 / 1000.0,
            },
            4 => Event::StageError { id, label, error: text },
            _ => Event::RunFinished {
                succeeded: n_us,
                failed: id % 1000,
                skipped: (n_us / 7) % 1000,
                cancelled: flag as usize,
            },
        };
        let line = event.to_jsonl();
        prop_assert!(!line.contains('\n'), "JSONL must be one line: {line:?}");
        prop_assert_eq!(Event::parse(&line).unwrap(), event);
    }

    /// Merging per-shard event logs is deterministic and loss-free
    /// regardless of how the shards' appends were interleaved in time:
    /// the merged stream is a pure function of the per-shard contents —
    /// every appended record appears exactly once, in its shard's
    /// order, with shards in sorted-id order — and merging twice is
    /// byte-identical.
    #[test]
    fn merge_shard_events_is_deterministic_and_loss_free(
        shard_count in 1usize..4,
        counts in prop::collection::vec(1usize..6, 3..4),
        schedule in prop::collection::vec(0usize..3, 0..32),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "gnnunlock-proptest-merge-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Per-shard streams with provenance-tagged labels.
        let queues: Vec<Vec<Event>> = (0..shard_count)
            .map(|i| {
                (0..counts[i])
                    .map(|j| Event::JobStarted { id: j, label: format!("s{i}-e{j}") })
                    .collect()
            })
            .collect();
        let logs: Vec<EventLog> = (0..shard_count)
            .map(|i| EventLog::open_append(&dir.join(shard_events_file(&format!("w{i}")))).unwrap())
            .collect();

        // Interleave the appends per the generated schedule, then drain
        // stragglers in reverse shard order (adversarial vs the sorted
        // merge).
        let mut cursor = vec![0usize; shard_count];
        for &pick in &schedule {
            let i = pick % shard_count;
            if cursor[i] < queues[i].len() {
                logs[i].append(&queues[i][cursor[i]]);
                cursor[i] += 1;
            }
        }
        for i in (0..shard_count).rev() {
            while cursor[i] < queues[i].len() {
                logs[i].append(&queues[i][cursor[i]]);
                cursor[i] += 1;
            }
        }
        drop(logs);

        // The expected merge depends only on per-shard contents, never
        // on the schedule (ids "w0".."w2" sort lexicographically).
        let mut expected = String::new();
        for queue in &queues {
            for ev in queue {
                expected.push_str(&ev.to_jsonl());
                expected.push('\n');
            }
        }

        let path = merge_shard_events(&dir).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        prop_assert_eq!(&first, &expected, "merge must be loss-free and ordered");
        // Deterministic: a re-merge (with the merged file already
        // present — it must not feed back into itself) is byte-identical.
        let again = merge_shard_events(&dir).unwrap();
        let second = std::fs::read_to_string(&again).unwrap();
        prop_assert_eq!(&first, &second);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Store paths never escape the cache directory, whatever bytes a
    /// custom kind tag contains.
    #[test]
    fn store_paths_never_escape(tag_bytes in prop::collection::vec(0u8..255, 0..32)) {
        let tag = bytes_to_string(&tag_bytes);
        let sanitized = sanitize_tag(&tag);
        prop_assert!(!sanitized.is_empty());
        prop_assert!(
            sanitized.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "sanitize_tag({tag:?}) produced {sanitized:?}"
        );
        prop_assert!(!sanitized.contains("..") || sanitized.chars().all(|c| c != '/'));
        // Through the real path builder: the entry path stays under the
        // root and introduces no traversal components.
        let root = Path::new("/cache/root");
        let path = root
            .join("objects")
            .join(&sanitized)
            .join("ab")
            .join("0123456789abcdef.bin");
        prop_assert!(path.starts_with(root));
        prop_assert!(path.components().all(|c| {
            let s = c.as_os_str();
            s != ".." && s != "."
        }));
    }
}

/// The FNV-1a implementation is pinned: these constants must never
/// change across releases, or every shared cache directory silently
/// goes cold (and, worse, a *partial* change could alias old entries).
#[test]
fn fingerprint_constants_are_pinned() {
    assert_eq!(fingerprint(b"gnnunlock"), 0x5a334ccdd9ae54ee);
    assert_eq!(
        fingerprint_fields(&["attack", "antisat", "c7552", "16", "1", "3"]),
        0x2b02ccb201bc8e3e
    );
    // StageJob fields, in order: kind, scheme, benchmark, key, seed,
    // epoch (empty here), salt.
    let job = StageJob {
        kind: JobKind::Custom("attack"),
        scheme: "antisat".into(),
        benchmark: Some("c7552".into()),
        key_bits: Some(16),
        seed: Some(1),
        epoch: None,
    };
    assert_eq!(
        job.fingerprint(3),
        fingerprint_fields(&["attack", "antisat", "c7552", "16", "1", "", "3"])
    );
    assert_eq!(job.fingerprint(3), 0x0af13779a4b2aaeb);
}

/// Disk-store entries round-trip through a real directory for arbitrary
/// payloads (deterministic sweep, not a proptest: file I/O per case).
#[test]
fn store_round_trips_binary_payloads() {
    let dir = std::env::temp_dir().join(format!("gnnunlock-proptest-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).unwrap();
    for (i, payload) in [
        Vec::new(),
        vec![0u8],
        vec![0xff; 3],
        (0..=255u8).collect::<Vec<u8>>(),
        b"GNNUCV1\n".to_vec(), // payload that mimics the entry magic
    ]
    .into_iter()
    .enumerate()
    {
        let fp = i as u64;
        store
            .save(JobKind::Custom("weird/../tag"), fp, &payload)
            .unwrap();
        assert_eq!(
            store.load(JobKind::Custom("weird/../tag"), fp).as_deref(),
            Some(&payload[..])
        );
    }
    assert_eq!(store.stats().evictions, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
