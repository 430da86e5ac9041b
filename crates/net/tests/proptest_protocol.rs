//! Property tests: every frame survives encode → (arbitrary fragmentation)
//! → decode unchanged, and the decoder never panics on garbage. Plus the
//! pins under them: the CRC equals a bit-at-a-time reference, and every
//! frame variant encodes to exactly the bytes it always has.

use bytes::{Bytes, BytesMut};
use cwc_net::{crc32, Frame, FrameCodec};
use cwc_types::{JobId, PhoneId, RadioTech};
use proptest::prelude::*;

fn radio_strategy() -> impl Strategy<Value = RadioTech> {
    prop_oneof![
        Just(RadioTech::Wifi80211a),
        Just(RadioTech::Wifi80211g),
        Just(RadioTech::Edge),
        Just(RadioTech::ThreeG),
        Just(RadioTech::FourG),
    ]
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            1u32..64,
            radio_strategy(),
            any::<u64>()
        )
            .prop_map(|(phone, clock, cores, radio, ram)| Frame::Register {
                phone: PhoneId(phone),
                clock_mhz: clock,
                cores,
                radio,
                ram_kb: ram,
            }),
        any::<u64>().prop_map(|t| Frame::RegisterAck { server_time_us: t }),
        (any::<u32>(), any::<u32>()).prop_map(|(id, kb)| Frame::BandwidthProbe {
            probe_id: id,
            payload_kb: kb,
        }),
        (any::<u32>(), 0.0..1e6f64).prop_map(|(id, r)| Frame::BandwidthReport {
            probe_id: id,
            kb_per_sec: r,
        }),
        (any::<u32>(), "[a-z_]{0,24}", any::<u64>()).prop_map(|(j, p, kb)| {
            Frame::ShipExecutable {
                job: JobId(j),
                program: p,
                exe_kb: kb,
            }
        }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
            proptest::collection::vec(any::<u8>(), 0..512)
        )
            .prop_map(
                |(j, seq, off, len, resume, (tid, sid, psid, replica), data)| {
                    Frame::ShipInput {
                        job: JobId(j),
                        seq,
                        offset_kb: off,
                        len_kb: len,
                        resume_from: resume.map(Bytes::from),
                        trace_id: tid,
                        span_id: sid,
                        parent_span: psid,
                        replica,
                        data: Bytes::from(data),
                    }
                }
            ),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..512)
        )
            .prop_map(|(j, seq, ms, res)| Frame::TaskComplete {
                job: JobId(j),
                seq,
                exec_ms: ms,
                result: Bytes::from(res),
            }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..512)
        )
            .prop_map(|(j, seq, kb, ck)| Frame::TaskFailed {
                job: JobId(j),
                seq,
                processed_kb: kb,
                checkpoint: Bytes::from(ck),
            }),
        any::<u64>().prop_map(|s| Frame::KeepAlive { seq: s }),
        any::<u64>().prop_map(|s| Frame::KeepAliveAck { seq: s }),
        (any::<u32>(), any::<u64>()).prop_map(|(j, seq)| Frame::CancelTask { job: JobId(j), seq }),
        Just(Frame::Plugged),
        Just(Frame::Unplugged),
        Just(Frame::Shutdown),
    ]
}

/// CRC32 (IEEE, reflected) one bit at a time: the definition, with no
/// tables, as the oracle for the table-driven [`crc32`].
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

#[test]
fn crc32_reference_agrees_with_the_check_value() {
    assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

/// One frame of every variant and its wire bytes, as hex. Any change to
/// the encoder that alters a single byte breaks this table.
fn golden_frames() -> Vec<(Frame, &'static str)> {
    vec![
        (
            Frame::Register {
                phone: PhoneId(3),
                clock_mhz: 1200,
                cores: 2,
                radio: RadioTech::ThreeG,
                ram_kb: 1_048_576,
            },
            "00000016d60089ff0100000003000004b000000002030000000000100000",
        ),
        (
            Frame::RegisterAck { server_time_us: 42 },
            "000000091344f5fe02000000000000002a",
        ),
        (
            Frame::BandwidthProbe {
                probe_id: 7,
                payload_kb: 256,
            },
            "0000000974bfc53a030000000700000100",
        ),
        (
            Frame::BandwidthReport {
                probe_id: 7,
                kb_per_sec: 812.75,
            },
            "0000000d4112c05604000000074089660000000000",
        ),
        (
            Frame::ShipExecutable {
                job: JobId(9),
                program: "wordcount".into(),
                exe_kb: 30,
            },
            "000000187d9fd7ea05000000090009776f7264636f756e74000000000000001e",
        ),
        (
            Frame::ShipInput {
                job: JobId(9),
                seq: 12,
                offset_kb: 0,
                len_kb: 250,
                resume_from: Some(Bytes::from_static(b"state")),
                trace_id: 9,
                span_id: 7,
                parent_span: 4,
                replica: true,
                data: Bytes::from_static(b"payload"),
            },
            "0000004bf9beeada0600000009000000000000000c000000000000000000000000000000fa01\
             00000005737461746500000000000000090000000000000007000000000000000401000000\
             077061796c6f6164",
        ),
        (
            Frame::TaskComplete {
                job: JobId(9),
                seq: 11,
                exec_ms: 1234,
                result: Bytes::from_static(b"42"),
            },
            "0000001b45fe71b60700000009000000000000000b00000000000004d2000000023432",
        ),
        (
            Frame::TaskFailed {
                job: JobId(9),
                seq: 12,
                processed_kb: 77,
                checkpoint: Bytes::from_static(b"ckpt"),
            },
            "0000001d760b99030800000009000000000000000c000000000000004d00000004636b7074",
        ),
        (
            Frame::KeepAlive { seq: 1 },
            "000000093dad9263090000000000000001",
        ),
        (
            Frame::KeepAliveAck { seq: 1 },
            "000000090420aea60a0000000000000001",
        ),
        (Frame::Plugged, "0000000145d036050b"),
        (Frame::Unplugged, "00000001dbb4a3a60c"),
        (
            Frame::CancelTask {
                job: JobId(9),
                seq: 12,
            },
            "0000000d5087b0420e00000009000000000000000c",
        ),
        (Frame::Shutdown, "00000001acb393300d"),
    ]
}

#[test]
fn every_variant_encodes_to_its_golden_bytes() {
    let golden = golden_frames();
    // Fourteen variants: a new one must be added here too.
    assert_eq!(golden.len(), 14);
    for (frame, hex) in &golden {
        let mut wire = BytesMut::new();
        frame.encode(&mut wire);
        let got: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(&got, hex, "{frame:?}");
        let mut codec = FrameCodec::new();
        codec.extend(&wire);
        assert_eq!(codec.next_frame().unwrap().as_ref(), Some(frame));
    }
}

#[test]
fn encoding_appends_after_existing_bytes() {
    let mut wire = BytesMut::new();
    wire.extend_from_slice(b"prefix");
    let (frame, hex) = &golden_frames()[5];
    frame.encode(&mut wire);
    let got: String = wire[6..].iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(&got, hex);
    assert_eq!(&wire[..6], b"prefix");
}

proptest! {
    #[test]
    fn crc32_matches_the_bitwise_reference(
        data in proptest::collection::vec(any::<u8>(), 0..4112),
        start in 0usize..16,
        len in 0usize..4097,
    ) {
        // Unaligned windows of every length up to 4 KiB.
        let start = start.min(data.len());
        let end = (start + len).min(data.len());
        let window = &data[start..end];
        prop_assert_eq!(crc32(window), crc32_reference(window));
    }

    #[test]
    fn encode_decode_round_trip(frame in frame_strategy()) {
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        let mut codec = FrameCodec::new();
        codec.extend(&buf);
        let decoded = codec.next_frame().unwrap().expect("complete frame");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn round_trip_survives_fragmentation(
        frames in proptest::collection::vec(frame_strategy(), 1..8),
        chunk in 1usize..17,
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            codec.extend(piece);
            while let Some(f) = codec.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut codec = FrameCodec::new();
        codec.extend(&bytes);
        // Any outcome is fine (None, Some, Err) as long as it doesn't panic
        // or loop forever.
        for _ in 0..8 {
            match codec.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    // --- Corrupted-stream properties: bit flips, truncations, and length
    // mutations must yield a decode error or a CRC rejection — never a
    // panic, never a silently wrong frame. ---

    #[test]
    fn bit_flip_never_yields_a_wrong_frame(
        frames in proptest::collection::vec(frame_strategy(), 1..6),
        flip_pos in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let mut raw = wire.to_vec();
        let at = flip_pos.index(raw.len());
        raw[at] ^= 1 << flip_bit;

        let mut codec = FrameCodec::new();
        codec.extend(&raw);
        let mut decoded = Vec::new();
        loop {
            match codec.next_frame() {
                Ok(Some(f)) => decoded.push(f),
                Ok(None) | Err(_) => break,
            }
        }
        // Every frame that survives decoding must be one of the originals:
        // corruption may only *remove* frames (rejection/desync), never
        // fabricate or alter one.
        for f in &decoded {
            prop_assert!(frames.contains(f), "fabricated frame {f:?}");
        }
        prop_assert!(decoded.len() <= frames.len());
    }

    #[test]
    fn truncation_decodes_a_clean_prefix(
        frames in proptest::collection::vec(frame_strategy(), 1..6),
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let raw = &wire[..cut.index(wire.len() + 1)];
        let mut codec = FrameCodec::new();
        codec.extend(raw);
        let mut decoded = Vec::new();
        while let Ok(Some(f)) = codec.next_frame() {
            decoded.push(f);
        }
        // A truncated stream yields exactly the frames that fit, in order.
        prop_assert!(decoded.len() <= frames.len());
        prop_assert_eq!(&frames[..decoded.len()], &decoded[..]);
    }

    #[test]
    fn length_prefix_mutation_is_rejected_or_skipped(
        frames in proptest::collection::vec(frame_strategy(), 1..5),
        bogus_len in any::<u32>(),
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let mut raw = wire.to_vec();
        raw[..4].copy_from_slice(&bogus_len.to_be_bytes());

        let mut codec = FrameCodec::new();
        codec.extend(&raw);
        let mut decoded = Vec::new();
        loop {
            match codec.next_frame() {
                Ok(Some(f)) => decoded.push(f),
                Ok(None) | Err(_) => break,
            }
        }
        for f in &decoded {
            prop_assert!(frames.contains(f), "fabricated frame {f:?}");
        }
    }
}
