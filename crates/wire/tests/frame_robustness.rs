//! Decoder robustness: arbitrary and adversarial byte inputs must map
//! onto `WireError` — never a panic, never an unbounded allocation.
//!
//! This is the deterministic, offline half of the defense; the
//! `proptest-tests`-gated suite (`wire_props.rs`) adds randomized
//! round-trip properties on a networked runner.

use apcache_core::policy::ApproxSpec;
use apcache_core::{Interval, Rng};
use apcache_queries::AggregateKind;
use apcache_store::Constraint;
use apcache_wire::{
    decode_message, encode_to_vec, frame_bytes, split_frame, WireError, WireMessage, WireRefresh,
    WireRequest, MAGIC, MAX_FRAME_LEN, VERSION,
};

/// A representative valid frame of every family, used as mutation seed.
fn sample_frames() -> Vec<Vec<u8>> {
    let mut frames = vec![
        encode_to_vec::<String>(&WireMessage::Refresh(WireRefresh {
            key: "k".to_string(),
            spec: ApproxSpec::Constant(Interval::new(1.0, 9.0).unwrap()),
            internal_width: 8.0,
        })),
        encode_to_vec::<String>(&WireMessage::Request(WireRequest::Read {
            key: "sensor/001".into(),
            constraint: Constraint::Relative(0.05),
            now: 12_000,
        })),
        encode_to_vec::<String>(&WireMessage::Request(WireRequest::WriteBatch {
            items: vec![("a".into(), 1.5), ("b".into(), -2.5)],
            now: 99,
        })),
        encode_to_vec::<String>(&WireMessage::Request(WireRequest::Aggregate {
            kind: AggregateKind::Max,
            keys: vec!["x".into(), "y".into(), "z".into()],
            constraint: Constraint::Exact,
            now: 1,
        })),
        encode_to_vec::<String>(&WireMessage::Request(WireRequest::Metrics)),
    ];
    frames.push(encode_to_vec::<String>(&WireMessage::Request(WireRequest::Shutdown)));
    frames
}

#[test]
fn every_truncation_of_every_valid_frame_errors_cleanly() {
    for frame in sample_frames() {
        for cut in 0..frame.len() {
            let res = decode_message::<String>(&frame[..cut]);
            assert!(
                res.is_err(),
                "decoding a {cut}-byte prefix of a {}-byte frame succeeded",
                frame.len()
            );
        }
        // The full frame still decodes (the suite is cutting valid data).
        assert!(decode_message::<String>(&frame).is_ok());
    }
}

#[test]
fn trailing_garbage_is_flagged_with_its_size() {
    for frame in sample_frames() {
        for extra in [1usize, 7, 64] {
            let mut noisy = frame.clone();
            noisy.extend(std::iter::repeat(0xEE).take(extra));
            assert_eq!(
                decode_message::<String>(&noisy),
                Err(WireError::TrailingBytes { count: extra })
            );
        }
    }
}

#[test]
fn every_single_byte_flip_decodes_or_errors_but_never_panics() {
    for frame in sample_frames() {
        for pos in 0..frame.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut mutated = frame.clone();
                mutated[pos] ^= flip;
                // Either outcome is fine; what is being tested is that
                // this call returns at all (no panic, no abort, no hang).
                let _ = decode_message::<String>(&mutated);
            }
        }
    }
}

#[test]
fn random_byte_blobs_never_panic_the_decoder() {
    let mut rng = Rng::seed_from_u64(0xF0_2001);
    for _ in 0..20_000 {
        let len = rng.below(256) as usize;
        let blob: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let _ = decode_message::<String>(&blob);
        let _ = decode_message::<u64>(&blob);
        let _ = split_frame(&blob);
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    for len in [u64::from(MAX_FRAME_LEN) + 1, u64::from(u32::MAX)] {
        let mut buf = (len as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        match split_frame(&buf) {
            Err(WireError::FrameTooLarge { len: got, max }) => {
                assert_eq!(got, len);
                assert_eq!(max, u64::from(MAX_FRAME_LEN));
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}

/// A frame header: magic ∥ version ∥ tag ∥ request-id (0).
fn header(tag: u8) -> Vec<u8> {
    let mut body = vec![MAGIC, VERSION, tag];
    body.extend_from_slice(&0u64.to_le_bytes());
    body
}

#[test]
fn unknown_tags_identify_their_context() {
    // Unknown message tag (rejected before the request-id field).
    let body = vec![MAGIC, VERSION, 0x7F];
    assert_eq!(
        decode_message::<String>(&body),
        Err(WireError::UnknownTag { context: "message", tag: 0x7F })
    );
    // Unknown verb inside a request frame.
    let mut body = header(3);
    body.push(0x7F);
    assert_eq!(
        decode_message::<String>(&body),
        Err(WireError::UnknownTag { context: "request verb", tag: 0x7F })
    );
    // Unknown constraint tag inside a Read.
    let mut body = header(3);
    body.push(1); // Read
    body.extend_from_slice(&1u32.to_le_bytes());
    body.push(b'k');
    body.push(0x7F); // constraint tag
    assert_eq!(
        decode_message::<String>(&body),
        Err(WireError::UnknownTag { context: "constraint", tag: 0x7F })
    );
}

#[test]
fn forged_sequence_counts_cannot_balloon_memory() {
    // An Aggregate frame claiming u32::MAX keys with a near-empty body:
    // the count check runs against remaining bytes before any Vec is
    // sized, so this must fail as Truncated (and return promptly).
    let mut body = header(3);
    body.extend_from_slice(&[4, 0]); // aggregate / Sum
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(decode_message::<String>(&body), Err(WireError::Truncated { .. })));
}

#[test]
fn nan_and_inverted_intervals_cannot_cross_the_wire() {
    let make = |lo: f64, hi: f64| {
        let mut body = header(1); // Refresh
        body.extend_from_slice(&1u32.to_le_bytes()); // key: "k"
        body.push(b'k');
        body.push(0); // ApproxSpec::Constant
        body.extend_from_slice(&lo.to_bits().to_le_bytes());
        body.extend_from_slice(&hi.to_bits().to_le_bytes());
        body.extend_from_slice(&4.0f64.to_bits().to_le_bytes()); // width
        body
    };
    assert!(matches!(
        decode_message::<String>(&make(f64::NAN, 1.0)),
        Err(WireError::InvalidPayload(_))
    ));
    assert!(matches!(decode_message::<String>(&make(2.0, 1.0)), Err(WireError::InvalidPayload(_))));
    // ±∞ bounds are legal protocol values, not attacks.
    assert!(decode_message::<String>(&make(f64::NEG_INFINITY, f64::INFINITY)).is_ok());
}

#[test]
fn framing_and_body_layers_compose() {
    let body = encode_to_vec::<String>(&WireMessage::Request(WireRequest::Metrics));
    let framed = frame_bytes(&body).unwrap();
    let (payload, consumed) = split_frame(&framed).unwrap();
    assert_eq!(consumed, framed.len());
    assert_eq!(
        decode_message::<String>(payload).unwrap(),
        WireMessage::Request(WireRequest::Metrics)
    );
}
