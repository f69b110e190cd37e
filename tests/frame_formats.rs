//! Pins the bytes of the five framed formats the system reads and writes:
//! ALCK (solver checkpoints), ALJL (journal records), ALPR (assembled
//! program containers), ALFR (flight-recorder dumps) and ALSV (wire
//! frames).
//!
//! Each format has one committed fixture under `tests/golden/frames/`, and
//! ALJL a second one for the record kinds that journal a matrix once. The
//! tests check both directions: encoding the sample value reproduces the
//! fixture, and decoding the fixture then re-encoding it gives the same
//! bytes. The fixtures were generated before the codecs were merged onto
//! one framing module, so they hold the refactor to byte identity.
//!
//! One hostile-input sweep then runs over every frame of every fixture:
//! truncation at every length, a single-bit flip at every offset, and every
//! length or count field set to `u32::MAX`, `u64::MAX` and `2^33` with the
//! CRC resealed. Every case must return a typed error, never panic.
//! Integer overflow panics in debug builds and wraps in release ones, so
//! this file runs under both profiles.
//!
//! Regenerate only for an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test frame_formats
//! ```

use std::io::Cursor;
use std::panic;
use std::path::PathBuf;

use alrescha::convert::{convert, KernelType};
use alrescha::{CheckpointError, FaultCounters, InjectorSnapshot, SolverCheckpoint, SolverKind};
use alrescha_asm::container::{read_container, write_container, ContainerError};
use alrescha_asm::{assemble_text, disassemble, AssembledProgram};
use alrescha_obs::flight::{FlightDump, FlightRecord, EV_ADMIT_OK, EV_BREAKER, EV_JOURNAL_ACCEPT};
use alrescha_obs::frame::{self, FrameError, TRAILER_LEN};
use alrescha_serve::{Frame, JobPayload, JournalRecord, Submission, TraceContext, WireError};
use alrescha_sparse::{gen, Coo};

/// Reads fixture `name`, first writing `encoded` to it under
/// `UPDATE_GOLDEN=1`, and checks that `encoded` matches it byte for byte.
fn pinned(name: &str, encoded: &[u8]) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/frames")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encoded).unwrap();
    }
    let fixture = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with UPDATE_GOLDEN=1)", path.display()));
    assert!(
        fixture == encoded,
        "{name}: encoder output differs from the fixture"
    );
    fixture
}

fn checkpoint() -> SolverCheckpoint {
    SolverCheckpoint {
        kind: SolverKind::Pcg,
        n: 3,
        iteration: 7,
        x: vec![1.0, -2.5, 3.25],
        r: vec![0.5, 0.0, -0.125],
        p: vec![-1.0, 2.0, f64::MIN_POSITIVE],
        rz: 0.375,
        r0: 12.5,
        residual_history: vec![10.0, 5.0, 2.5],
        fault: Some(InjectorSnapshot {
            rng_state: 0xDEAD_BEEF_CAFE_F00D,
            cycle: 424_242,
            counters: FaultCounters {
                injected: 5,
                detected: 4,
                recovered: 3,
                retries: 2,
                degraded: 1,
            },
        }),
    }
}

/// A 3×3 SPD tridiagonal system.
fn job() -> JobPayload {
    let mut matrix = Coo::new(3, 3);
    for i in 0..3 {
        matrix.push(i, i, 4.0);
        if i + 1 < 3 {
            matrix.push(i, i + 1, -1.0);
            matrix.push(i + 1, i, -1.0);
        }
    }
    JobPayload {
        matrix,
        b: vec![1.0, -0.5, 0.25],
        tol: 1e-9,
        max_iters: 50,
        priority: 2,
    }
}

fn journal() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Accepted {
            job_id: 1,
            tenant: "acme".to_owned(),
            job: job(),
        },
        JournalRecord::Completed {
            job_id: 1,
            fingerprint: 0xABCD_EF01_2345_6789,
            iterations: 12,
            residual: 3.5e-10,
            converged: true,
        },
        JournalRecord::Failed {
            job_id: 2,
            error: "pcg breakdown at iteration 4".to_owned(),
        },
    ]
}

/// The record kinds that journal a matrix once: the matrix under an
/// opaque id, then a job naming it.
fn journal_named() -> Vec<JournalRecord> {
    let job = job();
    vec![
        JournalRecord::Matrix {
            id: 1,
            matrix: job.matrix,
        },
        JournalRecord::Submitted {
            job_id: 3,
            matrix: 1,
            job: Submission {
                tenant: "acme".to_owned(),
                b: job.b,
                tol: job.tol,
                max_iters: job.max_iters,
                priority: job.priority,
            },
        },
    ]
}

fn program() -> AssembledProgram {
    let coo = gen::stencil27(2);
    let (alf, table) = convert(KernelType::SymGs, &coo, 8).unwrap();
    assemble_text(&disassemble(KernelType::SymGs, &table, &alf)).unwrap()
}

fn flight() -> FlightDump {
    let record = |seq, code, a, b, tag: &str| {
        let mut t = [0u8; alrescha_obs::flight::TAG_LEN];
        t[..tag.len()].copy_from_slice(tag.as_bytes());
        FlightRecord {
            seq,
            ts_ns: 1_000 * seq,
            code,
            a,
            b,
            tag: t,
        }
    };
    FlightDump {
        capacity: 16,
        total: 5,
        records: vec![
            record(2, EV_ADMIT_OK, 7, 0, "tenant-alpha"),
            record(3, EV_BREAKER, 0, 1, "device"),
            record(4, EV_JOURNAL_ACCEPT, 42, 0, ""),
        ],
    }
}

fn submit(tenant: &str, trace: TraceContext) -> Frame {
    Frame::Submit {
        tenant: tenant.to_owned(),
        job: job(),
        trace,
    }
}

fn v3_submit() -> Frame {
    submit(
        "tenant-α",
        TraceContext {
            trace_id: 0x0123_4567_89AB_CDEF,
            parent_span: 7,
        },
    )
}

fn v2_submit() -> Frame {
    submit("legacy", TraceContext::default())
}

/// The bytes a version-2 peer sends for `frame`, a Submit with a zero
/// trace: version 2 in the header and the payload ending at the priority
/// byte, before the 16-byte trace context that version 3 appends.
fn encode_v2(frame: &Frame) -> Vec<u8> {
    let v3 = frame.encode();
    let payload_len = v3.len() - 17 - 16;
    let mut out = v3[..13 + payload_len].to_vec();
    out[4..8].copy_from_slice(&2u32.to_le_bytes());
    out[9..13].copy_from_slice(&(payload_len as u32).to_le_bytes());
    frame::seal(&mut out);
    out
}

#[test]
fn alck_fixture_round_trips() {
    let fixture = pinned("alck.bin", &checkpoint().to_bytes());
    let decoded = SolverCheckpoint::from_bytes(&fixture).unwrap();
    assert_eq!(decoded, checkpoint());
    assert_eq!(decoded.to_bytes(), fixture);
}

#[test]
fn aljl_fixture_round_trips() {
    for (name, records) in [("aljl.bin", journal()), ("aljl_named.bin", journal_named())] {
        let encoded: Vec<u8> = records.iter().flat_map(JournalRecord::encode).collect();
        let fixture = pinned(name, &encoded);
        let mut rest = &fixture[..];
        let mut decoded = Vec::new();
        while !rest.is_empty() {
            let (record, used) = JournalRecord::decode(rest).expect("intact record");
            assert_eq!(record.encode(), rest[..used]);
            decoded.push(record);
            rest = &rest[used..];
        }
        assert_eq!(decoded, records, "{name}");
    }
}

#[test]
fn alpr_fixture_round_trips() {
    let program = program();
    let fixture = pinned("alpr.bin", &write_container(&program));
    let decoded = read_container(&fixture).unwrap();
    assert_eq!(decoded.kernel, program.kernel);
    assert_eq!(decoded.binary.as_bytes(), program.binary.as_bytes());
    assert_eq!(decoded.table.entries(), program.table.entries());
    assert_eq!(decoded.alf, program.alf);
    assert_eq!(write_container(&decoded), fixture);
}

#[test]
fn alfr_fixture_round_trips() {
    let fixture = pinned("alfr.bin", &flight().encode());
    let decoded = FlightDump::decode(&fixture).unwrap();
    assert_eq!(decoded, flight());
    assert_eq!(decoded.encode(), fixture);
}

#[test]
fn alsv_fixture_round_trips() {
    let (v3, v2) = (v3_submit(), v2_submit());
    let encoded = [v3.encode(), encode_v2(&v2)].concat();
    let fixture = pinned("alsv.bin", &encoded);
    let mut stream = Cursor::new(&fixture[..]);
    let first = Frame::read_from(&mut stream).unwrap();
    let second = Frame::read_from(&mut stream).unwrap();
    assert_eq!(stream.position() as usize, fixture.len());
    assert_eq!(first, v3);
    assert_eq!(second, v2);
    assert_eq!([first.encode(), encode_v2(&second)].concat(), fixture);
}

// ---------------------------------------------------------------------------
// Hostile-input sweep
// ---------------------------------------------------------------------------

/// A decode outcome: `Err(Some(_))` is a shared framing error,
/// `Err(None)` a format's own domain error (geometry, unknown tag, I/O).
type Outcome = Result<(), Option<FrameError>>;

/// A length or count field: byte offset, width, and the value the
/// pristine frame holds there (checked, so the offsets cannot drift).
type Field = (usize, usize, u64);

struct Case {
    name: &'static str,
    frame: Vec<u8>,
    /// Offset of the u32 count that sizes the frame; `None` when the frame
    /// is the whole buffer.
    extent: Option<usize>,
    fields: Vec<Field>,
    decode: fn(&[u8]) -> Outcome,
}

fn decode_alck(bytes: &[u8]) -> Outcome {
    match SolverCheckpoint::from_bytes(bytes) {
        Ok(_) => Ok(()),
        Err(CheckpointError::Frame(e)) => Err(Some(e)),
        Err(_) => Err(None),
    }
}

fn decode_aljl(bytes: &[u8]) -> Outcome {
    JournalRecord::decode(bytes).map(drop).map_err(Some)
}

fn decode_alpr(bytes: &[u8]) -> Outcome {
    match read_container(bytes) {
        Ok(_) => Ok(()),
        Err(ContainerError::Frame(e)) => Err(Some(e)),
        Err(_) => Err(None),
    }
}

fn decode_alfr(bytes: &[u8]) -> Outcome {
    FlightDump::decode(bytes).map(drop).map_err(Some)
}

/// Decodes both ways the server can: from a buffer and from a stream.
fn decode_alsv(bytes: &[u8]) -> Outcome {
    let streamed = Frame::read_from(&mut Cursor::new(bytes));
    let whole = Frame::decode(bytes);
    assert_eq!(
        streamed.is_ok(),
        whole.is_ok(),
        "stream and buffer decoders disagree"
    );
    match whole {
        Ok(_) => Ok(()),
        Err(WireError::Frame(e)) => Err(Some(e)),
        Err(_) => Err(None),
    }
}

/// The length fields of an encoded job starting at byte `at`: rows (the
/// right-hand side must match it), the entry count and the rhs length.
fn job_fields(at: usize) -> Vec<Field> {
    let job = job();
    let nnz = job.matrix.entries().len();
    vec![
        (at, 8, job.matrix.rows() as u64),
        (at + 16, 8, nnz as u64),
        (at + 24 + 24 * nnz, 8, job.b.len() as u64),
    ]
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();

    let cp = checkpoint();
    // magic 4, version 4, kind and fault flags 2, n at 10, then three
    // scalars and the 56-byte fault snapshot before the first vector.
    let mut fields = vec![(10, 8, cp.n as u64)];
    let mut at = 98;
    for v in [&cp.x, &cp.r, &cp.p, &cp.residual_history] {
        fields.push((at, 8, v.len() as u64));
        at += 8 + 8 * v.len();
    }
    cases.push(Case {
        name: "alck",
        frame: cp.to_bytes(),
        extent: None,
        fields,
        decode: decode_alck,
    });

    for record in journal().into_iter().chain(journal_named()) {
        let bytes = record.encode();
        // magic 4, payload length at 4, tag at 8, job (or matrix) id at 9.
        let mut fields = vec![(4, 4, (bytes.len() - 12) as u64)];
        match &record {
            JournalRecord::Accepted { tenant, .. } => {
                fields.push((17, 8, tenant.len() as u64));
                fields.extend(job_fields(25 + tenant.len()));
            }
            JournalRecord::Failed { error, .. } => fields.push((17, 8, error.len() as u64)),
            // rows at 17 and cols at 25 bound the entries; the entry count
            // is the length field.
            JournalRecord::Matrix { matrix, .. } => {
                fields.push((33, 8, matrix.entries().len() as u64));
            }
            // tenant, then the matrix id, then the right-hand side.
            JournalRecord::Submitted { job, .. } => {
                fields.push((17, 8, job.tenant.len() as u64));
                fields.push((33 + job.tenant.len(), 8, job.b.len() as u64));
            }
            _ => {}
        }
        cases.push(Case {
            name: "aljl",
            frame: bytes,
            extent: Some(4),
            fields,
            decode: decode_aljl,
        });
    }

    let program = program();
    let alf = &program.alf;
    // magic 4, version and kernel 2, rows/cols/omega at 6/14/22, layout at
    // 30, entry count at 31, then the packed bits and the diagonal.
    let diag_at = 39 + program.binary.as_bytes().len();
    let blocks_at = diag_at + 8 + 8 * alf.diagonal().len();
    cases.push(Case {
        name: "alpr",
        frame: write_container(&program),
        extent: None,
        fields: vec![
            (22, 8, alf.omega() as u64),
            (31, 8, program.binary.entry_count() as u64),
            (diag_at, 8, alf.diagonal().len() as u64),
            (blocks_at, 8, alf.blocks().len() as u64),
        ],
        decode: decode_alpr,
    });

    let dump = flight();
    cases.push(Case {
        name: "alfr",
        frame: dump.encode(),
        extent: Some(12),
        fields: vec![(12, 4, dump.records.len() as u64)],
        decode: decode_alfr,
    });

    for (frame, tenant) in [
        (v3_submit().encode(), "tenant-α"),
        (encode_v2(&v2_submit()), "legacy"),
    ] {
        // 13-byte header with the payload length at 9; the payload opens
        // with the tenant string.
        let mut fields = vec![
            (9, 4, (frame.len() - 17) as u64),
            (13, 8, tenant.len() as u64),
        ];
        fields.extend(job_fields(21 + tenant.len()));
        cases.push(Case {
            name: "alsv",
            frame,
            extent: Some(9),
            fields,
            decode: decode_alsv,
        });
    }
    cases
}

/// Runs the decoder, turning a panic into a failure that names the case.
fn run(case: &Case, bytes: &[u8], what: &str) -> Outcome {
    let decode = case.decode;
    panic::catch_unwind(|| decode(bytes))
        .unwrap_or_else(|_| panic!("{}: decoder panicked on {what}", case.name))
}

/// Writes `value` little-endian into `width` bytes at `at` and reseals the
/// CRC trailer at the end of the buffer.
fn patched(frame: &[u8], at: usize, width: usize, value: u64) -> Vec<u8> {
    let mut bytes = frame[..frame.len() - TRAILER_LEN].to_vec();
    bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    frame::seal(&mut bytes);
    bytes
}

const HOSTILE: [u64; 3] = [u32::MAX as u64, u64::MAX, 1 << 33];

#[test]
fn every_pristine_frame_decodes() {
    for case in cases() {
        assert_eq!(
            run(&case, &case.frame, "the pristine frame"),
            Ok(()),
            "{}",
            case.name
        );
        for &(at, width, value) in &case.fields {
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(&case.frame[at..at + width]);
            assert_eq!(
                u64::from_le_bytes(word),
                value,
                "{}: field at {at}",
                case.name
            );
        }
    }
}

/// A counted frame cut short is missing bytes it advertises; a
/// whole-buffer frame cut short has a trailer that no longer matches.
#[test]
fn truncation_at_every_length_is_a_framing_error() {
    for case in cases() {
        for len in 0..case.frame.len() {
            let outcome = run(&case, &case.frame[..len], &format!("truncation to {len}"));
            let caught = match outcome {
                Err(Some(FrameError::Truncated { .. })) => case.extent.is_some() || len < 8,
                Err(Some(FrameError::CrcMismatch { .. })) => case.extent.is_none() && len >= 8,
                _ => false,
            };
            assert!(
                caught,
                "{}: truncation to {len} gave {outcome:?}",
                case.name
            );
        }
    }
}

/// The CRC covers every byte, so damage is caught by the framing before
/// any field is trusted: a bad magic, a frame the damaged count no longer
/// fits, or a CRC mismatch everywhere else.
#[test]
fn a_flip_at_every_offset_is_a_framing_error() {
    for case in cases() {
        for at in 0..case.frame.len() {
            for mask in [0x01, 0x80] {
                let mut bytes = case.frame.clone();
                bytes[at] ^= mask;
                let in_count = case.extent.is_some_and(|e| (e..e + 4).contains(&at));
                let outcome = run(&case, &bytes, &format!("flip {mask:#04x} at {at}"));
                let caught = match outcome {
                    Err(Some(FrameError::BadMagic)) => at < 4,
                    Err(Some(FrameError::Truncated { .. } | FrameError::TooLarge { .. })) => {
                        in_count
                    }
                    Err(Some(FrameError::CrcMismatch { .. })) => at >= 4,
                    _ => false,
                };
                assert!(
                    caught,
                    "{}: flip {mask:#04x} at {at} gave {outcome:?}",
                    case.name
                );
            }
        }
    }
}

#[test]
fn hostile_length_fields_are_typed_errors() {
    for case in cases() {
        for &(at, width, _) in &case.fields {
            for value in HOSTILE {
                let bytes = patched(&case.frame, at, width, value);
                let outcome = run(&case, &bytes, &format!("{value:#x} in the field at {at}"));
                assert!(
                    outcome.is_err(),
                    "{}: {value:#x} at {at} decoded",
                    case.name
                );
            }
        }
    }
}

/// The same hostile words written over every field position, resealed:
/// whatever the field means, the decoder must not panic.
#[test]
fn hostile_words_anywhere_never_panic() {
    for case in cases() {
        let end = case.frame.len() - TRAILER_LEN;
        for width in [4, 8] {
            for at in 0..=end.saturating_sub(width) {
                for value in HOSTILE {
                    let bytes = patched(&case.frame, at, width, value);
                    let _ = run(
                        &case,
                        &bytes,
                        &format!("{value:#x} as {width} bytes at {at}"),
                    );
                }
            }
        }
    }
}
