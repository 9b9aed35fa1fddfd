//! Every error a scenario file or a wire message can decode to, pinned by
//! its exact text: one input per error site of `Scenario::parse` and
//! `Message::from_json`, each with a single defect, so a change to either
//! decoder that moves a path, renames a type or rewords a rejection shows
//! up here as a diff.

#![allow(clippy::unwrap_used)]

use contopt_client::protocol::Message;
use contopt_sim::{JsonValue, Scenario};

/// A valid config, and a valid program `p` that `CFG_P` runs.
const CFG: &str = r#"{"label": "a", "workloads": ["mcf"], "machine": {}}"#;
const CFG_P: &str = r#"{"label": "a", "workloads": ["p"], "machine": {}}"#;
const PROG: &str = r#"{"name": "p", "source": "        halt"}"#;

/// A scenario with a valid header around `programs` (omitted when empty)
/// and `configs`.
fn scenario(programs: &str, configs: &str) -> String {
    let programs = if programs.is_empty() {
        String::new()
    } else {
        format!(r#""programs": [{programs}], "#)
    };
    format!(r#"{{"version": 1, "name": "s", "insts": 1, {programs}"configs": [{configs}]}}"#)
}

/// A scenario whose only config carries `machine`.
fn machine(machine: &str) -> String {
    scenario(
        "",
        &format!(r#"{{"label": "a", "workloads": ["mcf"], "machine": {machine}}}"#),
    )
}

/// A scenario that runs the program entry `program` in its only config.
fn program(program: &str) -> String {
    scenario(program, CFG_P)
}

fn scenario_rows() -> Vec<(String, &'static str)> {
    let top = |s: &str| s.to_string();
    vec![
        (top("{"), "invalid JSON: unexpected end of input at byte 1"),
        (top("[]"), "expected an object at top level"),
        (
            top(r#"{"version": "1", "name": "s", "insts": 1, "configs": []}"#),
            "expected an integer at version",
        ),
        (
            top(r#"{"version": 2, "name": "s", "insts": 1, "configs": []}"#),
            "unsupported scenario version 2 (this build reads 1)",
        ),
        (
            top(r#"{"version": 1, "name": 5, "insts": 1, "configs": []}"#),
            "expected a string at name",
        ),
        (
            top(r#"{"version": 1, "name": "s", "insts": -1, "configs": []}"#),
            "expected an integer at insts",
        ),
        (
            top(r#"{"version": 1, "name": "s", "insts": 1, "configs": {}}"#),
            "expected an array at configs",
        ),
        (
            top(r#"{"version": 1, "name": "s", "insts": 1, "programs": {}, "configs": []}"#),
            "expected an array at programs",
        ),
        (
            top(r#"{"version": 1, "name": "s", "insts": 1, "ablation": [], "configs": []}"#),
            "expected an object at ablation",
        ),
        (
            top(
                r#"{"version": 1, "name": "s", "insts": 1, "ablation": {"add_one_in": 1},
                    "configs": []}"#,
            ),
            "expected a bool at ablation.add_one_in",
        ),
        (
            top(
                r#"{"version": 1, "name": "s", "insts": 1, "ablation": {"frob": true},
                    "configs": []}"#,
            ),
            "unknown field \"frob\" at ablation",
        ),
        (
            top(r#"{"version": 1, "name": "s", "insts": 1, "configs": [], "extra": 1}"#),
            "unknown field \"extra\" at top level",
        ),
        (
            top(r#"{"name": "s", "insts": 1, "configs": []}"#),
            "expected a \"version\" field at top level",
        ),
        (
            top(r#"{"version": 1, "insts": 1, "configs": []}"#),
            "expected a \"name\" field at top level",
        ),
        (
            top(r#"{"version": 1, "name": "s", "configs": []}"#),
            "expected an \"insts\" field at top level",
        ),
        (
            top(r#"{"version": 1, "name": "s", "insts": 1}"#),
            "expected a \"configs\" field at top level",
        ),
        // Configs.
        (scenario("", "5"), "expected an object at configs[0]"),
        (
            scenario("", r#"{"label": 1, "workloads": ["mcf"], "machine": {}}"#),
            "expected a string at configs[0].label",
        ),
        (
            scenario("", r#"{"label": "a", "workloads": "mcf", "machine": {}}"#),
            "expected an array at configs[0].workloads",
        ),
        (
            scenario(
                "",
                r#"{"label": "a", "workloads": ["mcf", 3], "machine": {}}"#,
            ),
            "expected a string at configs[0].workloads[1]",
        ),
        (
            scenario(
                "",
                &format!("{CFG}, {}", r#"{"label": "b", "workloads": ["mcf"]}"#),
            ),
            "expected a \"machine\" field at configs[1]",
        ),
        (
            scenario("", r#"{"workloads": ["mcf"], "machine": {}}"#),
            "expected a \"label\" field at configs[0]",
        ),
        (
            scenario("", r#"{"label": "a", "machine": {}}"#),
            "expected a \"workloads\" field at configs[0]",
        ),
        (
            scenario(
                "",
                r#"{"label": "a", "workloads": ["mcf"], "machine": {}, "x": 1}"#,
            ),
            "unknown field \"x\" at configs[0]",
        ),
        // Machine and optimizer blocks.
        (machine("[]"), "expected an object at configs[0].machine"),
        (
            machine(r#"{"fetch_width": "four"}"#),
            "expected an unsigned integer at configs[0].machine.fetch_width",
        ),
        (
            machine(r#"{"warp": 9}"#),
            "at configs[0].machine: unknown config field \"warp\"",
        ),
        (
            machine(r#"{"optimizer": true}"#),
            "expected an object at configs[0].machine.optimizer",
        ),
        (
            machine(r#"{"optimizer": {"enabled": "yes"}}"#),
            "expected a bool or unsigned integer at configs[0].machine.optimizer.enabled",
        ),
        (
            machine(r#"{"optimizer": {"enabled": 1}}"#),
            "at configs[0].machine.optimizer: config field \"enabled\" takes a bool",
        ),
        (
            machine(r#"{"optimizer": {"frobnicate": true}}"#),
            "at configs[0].machine.optimizer: unknown config field \"frobnicate\"",
        ),
        (
            machine(r#"{"optimizer": {"add_chain_depth": 99999999999}}"#),
            "at configs[0].machine.optimizer: value out of range for config field \
             \"add_chain_depth\"",
        ),
        // Programs.
        (program("5"), "expected an object at programs[0]"),
        (
            program(r#"{"name": 1, "source": "        halt"}"#),
            "expected a string at programs[0].name",
        ),
        (
            program(r#"{"name": "p", "source": 1}"#),
            "expected a string at programs[0].source",
        ),
        (
            program(r#"{"name": "p", "file": 1}"#),
            "expected a string at programs[0].file",
        ),
        (
            program(r#"{"name": "p", "source": "        halt", "verify": 1}"#),
            "expected a string at programs[0].verify",
        ),
        (
            program(r#"{"name": "p", "source": "        halt", "verify": "maybe"}"#),
            "expected \"allow-warnings\", \"clean\", or \"skip\" at programs[0].verify",
        ),
        (
            program(r#"{"name": "p", "source": "        halt", "x": 1}"#),
            "unknown field \"x\" at programs[0]",
        ),
        (
            program(r#"{"name": "p"}"#),
            "expected exactly one of \"source\" or \"file\" at programs[0]",
        ),
        (
            program(r#"{"name": "p", "source": "        halt", "file": "p.s"}"#),
            "expected exactly one of \"source\" or \"file\" at programs[0]",
        ),
        (
            program(r#"{"source": "        halt"}"#),
            "expected a \"name\" field at programs[0]",
        ),
        (
            program(r#"{"name": "p", "source": "        frobz r1, r2, r3"}"#),
            "program \"p\": line 1:9: unknown mnemonic `frobz`",
        ),
        (
            program(r#"{"name": "p", "source": "        addq r9, 1, r1\n        halt"}"#),
            "program \"p\" failed verification: error[use_before_init] 1:9 (inst 0 @ 0x1000): \
             r9 may be read before initialization (1 error(s), 0 warning(s))",
        ),
        (
            program(
                r#"{"name": "p", "source": "loop:   li r1, 1\n        bne r1, loop\n        halt",
                    "verify": "clean"}"#,
            ),
            "program \"p\" failed verification: warning[unprovable_loop] 2:9 (inst 1 @ 0x1004): \
             cannot prove loop bounded: counter r1 is not stepped by a constant \
             (0 error(s), 1 warning(s))",
        ),
        // Semantic validation.
        (
            top(&format!(
                r#"{{"version": 1, "name": "s", "insts": 0, "configs": [{CFG}]}}"#
            )),
            "\"insts\" must be positive",
        ),
        (scenario("", ""), "\"configs\" is empty"),
        (
            scenario(r#"{"name": "", "source": "        halt"}"#, CFG),
            "program \"\": program name is empty",
        ),
        (
            scenario(r#"{"name": "twf", "source": "        halt"}"#, CFG),
            "program \"twf\" duplicates another program or a Table 1 benchmark",
        ),
        (
            scenario(&format!("{PROG}, {PROG}"), CFG_P),
            "program \"p\" duplicates another program or a Table 1 benchmark",
        ),
        (
            scenario("", &format!("{CFG}, {CFG}")),
            "duplicate config label \"a\"",
        ),
        (
            machine(r#"{"fetch_width": 0}"#),
            "config \"a\": fetch/rename width must be at least 1",
        ),
        (
            scenario("", r#"{"label": "a", "workloads": [], "machine": {}}"#),
            "config \"a\" workload list is empty",
        ),
        (
            scenario(
                "",
                r#"{"label": "a", "workloads": ["nope"], "machine": {}}"#,
            ),
            "config \"a\" names unknown workload \"nope\"",
        ),
    ]
}

/// A wire payload: `{"v": 1, "type": <tag>, <rest>}`.
fn wire(tag: &str, rest: &str) -> String {
    let rest = if rest.is_empty() {
        String::new()
    } else {
        format!(", {rest}")
    };
    format!(r#"{{"v": 1, "type": "{tag}"{rest}}}"#)
}

/// A `submit_plan` with `insts` 1 around `cells` and an optional
/// `programs` block.
fn plan(cells: &str, programs: &str) -> String {
    let programs = if programs.is_empty() {
        String::new()
    } else {
        format!(r#", "programs": [{programs}]"#)
    };
    wire(
        "submit_plan",
        &format!(r#""insts": 1, "cells": [{cells}]{programs}"#),
    )
}

/// A `submit_plan` whose only cell is `cell`.
fn cell(cell: &str) -> String {
    plan(cell, "")
}

/// A `sweep_status` with every required counter but `without`, plus
/// `extra`.
fn sweep_status(without: &str, extra: &str) -> String {
    let fields = [
        "results",
        "unique",
        "simulated",
        "cache_hits",
        "joined",
        "total_simulations",
        "cache_entries",
    ];
    let mut rest: Vec<String> = fields
        .iter()
        .filter(|f| **f != without)
        .map(|f| format!(r#""{f}": 1"#))
        .collect();
    if !extra.is_empty() {
        rest.push(extra.to_string());
    }
    wire("sweep_status", &rest.join(", "))
}

/// A `server_status` with every counter but `without`, plus `extra`.
fn server_status(without: &str, extra: &str) -> String {
    let fields = [
        "protocol_version",
        "jobs",
        "cache_capacity",
        "cache_entries",
        "in_flight",
        "total_simulations",
    ];
    let mut rest: Vec<String> = fields
        .iter()
        .filter(|f| **f != without)
        .map(|f| format!(r#""{f}": 1"#))
        .collect();
    if !extra.is_empty() {
        rest.push(extra.to_string());
    }
    wire("server_status", &rest.join(", "))
}

/// A `server_status` whose only downstream is `entry`.
fn downstream(entry: &str) -> String {
    server_status("", &format!(r#""downstreams": [{entry}]"#))
}

fn wire_rows() -> Vec<(String, &'static str)> {
    let raw = |s: &str| s.to_string();
    let submit = |sc: &str| wire("submit_scenario", &format!(r#""scenario": {sc}"#));
    const CELL: &str = r#"{"label": "a", "workload": "mcf", "machine": {}}"#;
    const DS: &str = r#""address": "h:1", "healthy": true, "outstanding": 0, "forwarded": 0"#;
    vec![
        (
            raw("[]"),
            "malformed message: expected an object at payload",
        ),
        (
            raw(r#"{"type": "ping"}"#),
            "malformed message: expected an unsigned integer at payload.v",
        ),
        (
            raw(r#"{"v": "1", "type": "ping"}"#),
            "malformed message: expected an unsigned integer at payload.v",
        ),
        (
            raw(r#"{"v": 2, "type": "ping"}"#),
            "peer speaks protocol version 2 (this build speaks 1)",
        ),
        (
            raw(r#"{"v": 1}"#),
            "malformed message: expected a string at payload.type",
        ),
        (
            raw(r#"{"v": 1, "type": 7}"#),
            "malformed message: expected a string at payload.type",
        ),
        (
            wire("ping", r#""jobs": -1"#),
            "malformed message: expected an unsigned integer at payload.jobs",
        ),
        (wire("frob", ""), "unknown message type \"frob\""),
        // submit_scenario: the embedded scenario decodes as a file does.
        (
            wire("submit_scenario", ""),
            "malformed message: expected a scenario object at payload.scenario",
        ),
        (
            submit("5"),
            "invalid scenario payload: expected an object at top level",
        ),
        (
            submit(r#"{"version": 1, "name": 5, "insts": 1, "configs": []}"#),
            "invalid scenario payload: expected a string at name",
        ),
        (
            submit(&scenario(
                "",
                r#"{"label": "a", "workloads": ["nope"], "machine": {}}"#,
            )),
            "invalid scenario payload: config \"a\" names unknown workload \"nope\"",
        ),
        (
            submit(&program(
                r#"{"name": "p", "source": "        frobz r1, r2, r3"}"#,
            )),
            "invalid scenario payload: program \"p\": line 1:9: unknown mnemonic `frobz`",
        ),
        (
            submit(&program(
                r#"{"name": "p", "source": "        addq r9, 1, r1\n        halt"}"#,
            )),
            "invalid scenario payload: program \"p\" failed verification: \
             error[use_before_init] 1:9 (inst 0 @ 0x1000): r9 may be read before \
             initialization (1 error(s), 0 warning(s))",
        ),
        // submit_plan.
        (
            wire("submit_plan", r#""cells": []"#),
            "malformed message: expected an unsigned integer at payload.insts",
        ),
        (
            wire("submit_plan", r#""insts": "1", "cells": []"#),
            "malformed message: expected an unsigned integer at payload.insts",
        ),
        (
            wire("submit_plan", r#""insts": 1"#),
            "malformed message: expected an array at payload.cells",
        ),
        (
            wire("submit_plan", r#""insts": 1, "cells": {}"#),
            "malformed message: expected an array at payload.cells",
        ),
        (
            cell("5"),
            "malformed message: expected a string at payload.cells[0].label",
        ),
        (
            cell(r#"{"workload": "mcf", "machine": {}}"#),
            "malformed message: expected a string at payload.cells[0].label",
        ),
        (
            plan(
                &format!(
                    "{CELL}, {}",
                    r#"{"label": "a", "workload": 1, "machine": {}}"#
                ),
                "",
            ),
            "malformed message: expected a string at payload.cells[1].workload",
        ),
        (
            cell(r#"{"label": "a", "workload": "mcf"}"#),
            "malformed message: expected a machine object at payload.cells[0].machine",
        ),
        (
            cell(r#"{"label": "a", "workload": "mcf", "machine": 5}"#),
            "invalid scenario payload: expected an object at payload.cells[0].machine",
        ),
        (
            cell(r#"{"label": "a", "workload": "mcf", "machine": {"fetch_width": -4}}"#),
            "invalid scenario payload: expected an unsigned integer at \
             payload.cells[0].machine.fetch_width",
        ),
        (
            cell(r#"{"label": "a", "workload": "mcf", "machine": {"warp": 9}}"#),
            "invalid scenario payload: at payload.cells[0].machine: unknown config field \"warp\"",
        ),
        (
            wire("submit_plan", r#""insts": 1, "cells": [], "programs": {}"#),
            "malformed message: expected an array at payload.programs",
        ),
        (
            plan("", "5"),
            "invalid scenario payload: expected an object at payload.programs[0]",
        ),
        (
            plan("", r#"{"name": "k", "source": "        halt", "x": 1}"#),
            "invalid scenario payload: unknown field \"x\" at payload.programs[0]",
        ),
        (
            plan("", r#"{"source": "        halt"}"#),
            "invalid scenario payload: expected a \"name\" field at payload.programs[0]",
        ),
        (
            plan("", r#"{"name": "k", "source": 1}"#),
            "invalid scenario payload: expected a string at payload.programs[0].source",
        ),
        (
            plan("", r#"{"name": "k", "file": "k.s"}"#),
            "invalid scenario payload: program \"k\": a \"file\" program cannot be assembled \
             without a base directory; inline its text first",
        ),
        (
            plan("", r#"{"name": "k", "source": "        frobz r1, r2, r3"}"#),
            "invalid scenario payload: program \"k\": line 1:9: unknown mnemonic `frobz`",
        ),
        (
            plan(
                "",
                r#"{"name": "k", "source": "        addq r9, 1, r1\n        halt"}"#,
            ),
            "invalid scenario payload: program \"k\" failed verification: \
             error[use_before_init] 1:9 (inst 0 @ 0x1000): r9 may be read before \
             initialization (1 error(s), 0 warning(s))",
        ),
        (
            plan("", r#"{"name": "twf", "source": "        halt"}"#),
            "invalid scenario payload: program \"twf\" duplicates another program or a \
             Table 1 benchmark",
        ),
        (
            plan("", &format!("{PROG}, {PROG}")),
            "invalid scenario payload: program \"p\" duplicates another program or a \
             Table 1 benchmark",
        ),
        // sweep_status.
        (
            sweep_status("results", ""),
            "malformed message: expected an unsigned integer at payload.results",
        ),
        (
            sweep_status("cache_entries", ""),
            "malformed message: expected an unsigned integer at payload.cache_entries",
        ),
        (
            sweep_status("", r#""errors": "0""#),
            "malformed message: expected an unsigned integer at payload.errors",
        ),
        (
            sweep_status("", r#""forwarded": null"#),
            "malformed message: expected an unsigned integer at payload.forwarded",
        ),
        // server_status.
        (
            server_status("protocol_version", ""),
            "malformed message: expected an unsigned integer at payload.protocol_version",
        ),
        (
            server_status("total_simulations", ""),
            "malformed message: expected an unsigned integer at payload.total_simulations",
        ),
        (
            server_status("", r#""downstreams": {}"#),
            "malformed message: expected an array at payload.downstreams",
        ),
        (
            downstream("5"),
            "malformed message: expected a string at payload.downstreams[0].address",
        ),
        (
            downstream(r#"{"healthy": true, "outstanding": 0, "forwarded": 0}"#),
            "malformed message: expected a string at payload.downstreams[0].address",
        ),
        (
            downstream(r#"{"address": "h:1", "healthy": 1, "outstanding": 0, "forwarded": 0}"#),
            "malformed message: expected a boolean at payload.downstreams[0].healthy",
        ),
        (
            downstream(r#"{"address": "h:1", "healthy": true, "forwarded": 0}"#),
            "malformed message: expected an unsigned integer at payload.downstreams[0].outstanding",
        ),
        (
            server_status(
                "",
                &format!(r#""downstreams": [{{{DS}}}, {{"address": "h:2"}}]"#),
            ),
            "malformed message: expected a boolean at payload.downstreams[1].healthy",
        ),
        (
            downstream(r#"{"address": "h:1", "healthy": true, "outstanding": 0}"#),
            "malformed message: expected an unsigned integer at payload.downstreams[0].forwarded",
        ),
        // Per-cell replies and errors.
        (
            wire(
                "cell_result",
                r#""workload": "w", "fingerprint": "f", "report": "r""#,
            ),
            "malformed message: expected a string at payload.label",
        ),
        (
            wire(
                "cell_result",
                r#""label": "l", "workload": "w", "fingerprint": "f", "report": {}"#,
            ),
            "malformed message: expected a string at payload.report",
        ),
        (
            wire(
                "cell_error",
                r#""label": "l", "workload": "w", "fingerprint": "f", "message": "m""#,
            ),
            "malformed message: expected a string at payload.code",
        ),
        (
            wire(
                "cell_error",
                r#""label": "l", "workload": "w", "fingerprint": 7, "code": "c",
                   "message": "m""#,
            ),
            "malformed message: expected a string at payload.fingerprint",
        ),
        (
            wire("error", r#""message": "m""#),
            "malformed message: expected a string at payload.code",
        ),
        (
            wire("error", r#""code": "c", "message": false"#),
            "malformed message: expected a string at payload.message",
        ),
    ]
}

/// Collects every row whose error text differs from the pinned one, so a
/// failure lists all of them at once.
fn mismatches<E: std::fmt::Display>(
    rows: &[(String, &'static str)],
    decode: impl Fn(&str) -> Result<(), E>,
) -> Vec<String> {
    rows.iter()
        .filter_map(|(input, want)| {
            let got = match decode(input) {
                Ok(()) => "<decoded>".to_string(),
                Err(e) => e.to_string(),
            };
            (got != *want).then(|| format!("input {input}\n  want {want}\n  got  {got}"))
        })
        .collect()
}

#[test]
fn scenario_errors_keep_their_paths_and_text() {
    let rows = scenario_rows();
    let bad = mismatches(&rows, |text| Scenario::parse(text).map(drop));
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn wire_errors_keep_their_paths_and_text() {
    let rows = wire_rows();
    let bad = mismatches(&rows, |text| {
        Message::from_json(&JsonValue::parse(text).unwrap()).map(drop)
    });
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
