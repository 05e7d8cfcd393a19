//! Property tests for the wire decoder: whatever bytes a peer sends, reading a line with
//! `read_ndjson_line` and decoding it with `Request::from_json` / `Response::from_json`
//! returns `Ok` or `Err` and never panics.  Truncated messages are rejected, and complete
//! ones round-trip.

use p2pgrid_core::Algorithm;
use p2pgrid_experiments::rununit::RunUnit;
use p2pgrid_experiments::ExperimentScale;
use p2pgrid_server::protocol::JobStatus;
use p2pgrid_server::{CampaignSpec, JobId, Request, Response, WorkerId};
use proptest::prelude::*;
use serde::json::{self, Value};

fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "decoder".to_string(),
        scale: ExperimentScale::Smoke,
        seeds: vec![1, 2],
        algorithms: vec![Algorithm::Dsmf, Algorithm::Heft],
        workload: None,
    }
}

/// One message of every request variant (non-ASCII strings included, so prefixes also split
/// multi-byte characters).
fn requests() -> Vec<Request> {
    vec![
        Request::Register {
            hostname: "nœud-\"7\"".to_string(),
        },
        Request::Heartbeat {
            worker: WorkerId(3),
        },
        Request::Pull {
            worker: WorkerId(3),
        },
        Request::Complete {
            worker: WorkerId(3),
            job: JobId(1),
            unit: 2,
            artifact: Value::object([
                ("format", Value::from("p2pgrid-campaign-unit/v1")),
                ("values", Value::array([1.5, -2.0, 0.0])),
            ]),
        },
        Request::FailUnit {
            worker: WorkerId(3),
            job: JobId(1),
            unit: 2,
            reason: "boom ✗\n".to_string(),
        },
        Request::Submit { spec: spec() },
        Request::Status { job: JobId(0) },
        Request::Fetch { job: JobId(0) },
        Request::Shutdown,
    ]
}

/// One message of every response variant.
fn responses() -> Vec<Response> {
    vec![
        Response::Registered {
            worker: WorkerId(1),
            heartbeat_ms: 5000,
        },
        Response::Ok,
        Response::Assignment {
            job: JobId(0),
            unit: RunUnit {
                index: 1,
                seed: 2,
                algorithm: Algorithm::Heft,
            },
            spec: spec(),
        },
        Response::Idle,
        Response::Unregistered,
        Response::Accepted {
            job: JobId(4),
            units: 12,
        },
        Response::Status(JobStatus {
            job: JobId(4),
            state: "failed".to_string(),
            reason: Some("retry budget exhausted".to_string()),
            total: 12,
            done: 3,
            in_flight: 1,
            pending: 8,
            workers_alive: 2,
        }),
        Response::Artifact {
            job: JobId(4),
            body: Value::object([("units", Value::array([7u64, 8]))]),
        },
        Response::ShuttingDown,
        Response::Error {
            message: "unknown job `job-9`".to_string(),
        },
    ]
}

/// The wire encoding of every sample request and response, one line each without the
/// trailing newline.
fn encoded_lines() -> Vec<String> {
    let reqs = requests().into_iter().map(|r| r.to_json());
    let resps = responses().into_iter().map(|r| r.to_json());
    reqs.chain(resps)
        .map(|v| v.to_wire_string().expect("sample messages are finite"))
        .collect()
}

/// Read every line of `bytes` and decode each parsed value both ways.  Returns the parsed
/// values; any panic fails the calling test.
fn read_and_decode(bytes: &[u8]) -> Vec<Value> {
    let mut reader = bytes;
    let mut values = Vec::new();
    // Each successful read consumes at least one byte, so this loop terminates.
    while let Ok(Some(value)) = json::read_ndjson_line(&mut reader) {
        let _ = Request::from_json(&value);
        let _ = Response::from_json(&value);
        values.push(value);
    }
    values
}

#[test]
fn every_prefix_of_a_valid_message_errors_or_round_trips() {
    let reqs = requests();
    let resps = responses();
    for (i, line) in encoded_lines().iter().enumerate() {
        let bytes = line.as_bytes();
        for k in 0..bytes.len() {
            let read = json::read_ndjson_line(&mut &bytes[..k]);
            if k == 0 {
                assert!(matches!(read, Ok(None)), "empty input is end of stream");
            } else {
                // A strict prefix of a compact JSON object never closes it.
                assert!(read.is_err(), "prefix {k} of `{line}` parsed: {read:?}");
            }
            read_and_decode(&bytes[..k]);
        }
        for complete in [line.clone(), format!("{line}\n")] {
            let value = json::read_ndjson_line(&mut complete.as_bytes())
                .expect("a complete line reads")
                .expect("a complete line is not end of stream");
            if i < reqs.len() {
                assert_eq!(Request::from_json(&value), Ok(reqs[i].clone()));
            } else {
                assert_eq!(
                    Response::from_json(&value),
                    Ok(resps[i - reqs.len()].clone())
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes — invalid UTF-8, stray newlines, half-formed JSON — never panic the
    /// reader or the decoders.
    #[test]
    fn prop_random_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..512)
    ) {
        read_and_decode(&bytes);
    }

    /// A valid message with one byte overwritten still only errors or decodes; this reaches
    /// the decoders' field checks far more often than uniformly random bytes do.
    #[test]
    fn prop_corrupted_messages_never_panic_the_decoder(
        which in 0usize..19,
        at in 0usize..4096,
        byte in 0u8..=255
    ) {
        let lines = encoded_lines();
        let mut bytes = lines[which % lines.len()].clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        read_and_decode(&bytes);
    }
}
