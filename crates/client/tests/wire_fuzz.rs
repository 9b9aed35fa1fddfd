//! `read_frame` takes its bytes from the network, so a mutated payload of
//! any message type must decode to a message or to a typed error, never
//! panic.

// A free helper sits outside clippy's in-test exemption for the crate's
// unwrap lint; a panic there is a test failure, as intended.
#![allow(clippy::unwrap_used)]

use contopt_client::protocol::{
    read_frame, write_frame, CellError, CellResult, DownstreamStatus, Message, PlanCell,
    ServerStatus, SweepStatus, WireError,
};
use contopt_sim::fuzz::mutate;
use contopt_sim::workloads::SplitMix64;
use contopt_sim::{MachineConfig, ProgramSpec, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Cases per run; fixed, like the seed, so a failure reproduces.
const CASES: u32 = 20_000;

/// One encoded payload (a frame without its length prefix) of every
/// message type.
fn payloads() -> Vec<Vec<u8>> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scenario = Scenario::load(repo.join("scenarios/asm_smoke.json")).unwrap();
    let messages = [
        Message::SubmitScenario {
            jobs: Some(2),
            scenario,
        },
        Message::SubmitPlan {
            jobs: None,
            insts: 10_000,
            cells: vec![PlanCell {
                label: "base".into(),
                machine: MachineConfig::default_with_optimizer(),
                workload: "k".into(),
            }],
            programs: vec![ProgramSpec::inline("k", "        li r1, 3\n        halt\n").unwrap()],
        },
        Message::SweepStatus(SweepStatus {
            results: 4,
            unique: 3,
            simulated: 1,
            cache_hits: 1,
            errors: 1,
            ..SweepStatus::default()
        }),
        Message::CellResult(CellResult {
            label: "baseline".into(),
            workload: "twf".into(),
            fingerprint: "0123456789abcdef".into(),
            report: "{\n  \"pipeline\": {}\n}\n".into(),
        }),
        Message::CellError(CellError {
            label: "optimized".into(),
            workload: "untst".into(),
            fingerprint: "fedcba9876543210".into(),
            code: "panic".into(),
            message: "index out of bounds".into(),
        }),
        Message::Ping,
        Message::ServerStatus(ServerStatus {
            protocol_version: 1,
            jobs: 2,
            downstreams: vec![DownstreamStatus {
                address: "10.0.0.2:7070".into(),
                healthy: true,
                outstanding: 2,
                forwarded: 41,
            }],
            ..ServerStatus::default()
        }),
        Message::Error(WireError {
            code: "bad-request".into(),
            message: "no such workload".into(),
        }),
    ];
    messages
        .iter()
        .map(|msg| {
            let mut frame = Vec::new();
            write_frame(&mut frame, msg).unwrap();
            frame.split_off(4)
        })
        .collect()
}

#[test]
fn mutated_frames_decode_or_fail_typed() {
    let payloads = payloads();
    let donors: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let mut rng = SplitMix64::new(2005);
    let (mut decoded, mut rejected) = (0, 0);
    for case in 0..CASES {
        let base = donors[rng.below(donors.len() as u64) as usize];
        let payload = mutate(&mut rng, base, &donors);
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let outcome = catch_unwind(AssertUnwindSafe(|| match read_frame(&mut &frame[..]) {
            // A decoded message must encode, and decode again.
            Ok(msg) => {
                let mut again = Vec::new();
                write_frame(&mut again, &msg).unwrap();
                read_frame(&mut &again[..]).unwrap();
                true
            }
            Err(e) => {
                let _ = e.to_string();
                false
            }
        }));
        match outcome {
            Ok(true) => decoded += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!(
                "case {case} panicked on payload {:?}",
                String::from_utf8_lossy(&payload)
            ),
        }
    }
    assert_eq!(decoded + rejected, CASES);
    // Some mutations must survive (an unread key flipped, say), or the
    // campaign only ever reaches the JSON parser.
    assert!(decoded > 0, "no mutated frame decoded");
}
