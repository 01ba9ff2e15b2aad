//! JSONL (one JSON object per line) exporters.
//!
//! Two things are exported this way: raw trace streams (one event per
//! line, suitable for `grep`/`jq` pipelines and the byte-identical
//! determinism guarantee) and per-run metric records (one run per line,
//! the `BENCH_*.json`-style trajectory format).

use crate::event::{EventKind, TraceEvent, NO_SLOT};
use crate::json::Json;

/// Renders one trace event as a single-line JSON object.
pub fn event_json(ev: &TraceEvent) -> Json {
    let mut b = Json::obj()
        .field("cy", ev.at.get())
        .field("node", ev.node as u64);
    if ev.slot != NO_SLOT {
        b = b.field("slot", ev.slot as u64);
    }
    b = b
        .field("cat", ev.kind.category())
        .field("ev", ev.kind.name());
    match ev.kind {
        EventKind::TxnBegin { attempt } => b = b.field("attempt", attempt as u64),
        EventKind::PhaseBegin(p) | EventKind::PhaseEnd(p) => b = b.field("phase", p.label()),
        EventKind::TxnAbort { reason } => b = b.field("reason", reason),
        EventKind::VerbSend { verb, dst, bytes } => {
            b = b
                .field("verb", verb.label())
                .field("dst", dst as u64)
                .field("bytes", bytes as u64);
        }
        EventKind::VerbRecv { verb, src, bytes } => {
            b = b
                .field("verb", verb.label())
                .field("src", src as u64)
                .field("bytes", bytes as u64);
        }
        EventKind::BloomInsert { site } => b = b.field("site", site.label()),
        EventKind::BloomProbe { hit } => b = b.field("hit", Json::Bool(hit)),
        EventKind::LockAcquire { owner } => b = b.field("owner", owner),
        EventKind::LockStall { holder } => b = b.field("holder", holder),
        EventKind::FaultInjected { fault } => {
            b = b.field("fault", fault.label());
            if let Some(verb) = fault.verb() {
                b = b.field("verb", verb.label());
            }
        }
        EventKind::Recovery { action } => b = b.field("action", action.label()),
        EventKind::StarvationBoost { attempt } => b = b.field("attempt", attempt as u64),
        EventKind::EpochChange { epoch } => b = b.field("epoch", epoch),
        EventKind::Promotion {
            partition,
            new_primary,
        } => {
            b = b
                .field("partition", partition as u64)
                .field("new_primary", new_primary as u64);
        }
        EventKind::VerbFenced { verb } => b = b.field("verb", verb.label()),
        EventKind::MigrationStart { partition, dst } => {
            b = b
                .field("partition", partition as u64)
                .field("dst", dst as u64);
        }
        EventKind::ChunkMigrated { partition, chunk } => {
            b = b
                .field("partition", partition as u64)
                .field("chunk", chunk as u64);
        }
        EventKind::MigrationCutover { epoch } => b = b.field("epoch", epoch),
        EventKind::LinkCut { src, dst } | EventKind::LinkHealed { src, dst } => {
            b = b.field("src", src as u64);
            b = b.field("dst", dst as u64);
        }
        EventKind::SelfFenced { node } | EventKind::QuorumLost { node } => {
            b = b.field("node", node as u64)
        }
        EventKind::TxnCommit
        | EventKind::BloomFalsePositive
        | EventKind::AdmissionThrottled
        | EventKind::DegradedCommit => {}
    }
    b.build()
}

/// Renders a whole event stream as JSONL (trailing newline included).
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(ev).render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, Verb};
    use hades_sim::time::Cycles;

    #[test]
    fn one_line_per_event_and_stable_fields() {
        let events = [
            TraceEvent {
                at: Cycles::new(5),
                node: 1,
                slot: 2,
                kind: EventKind::PhaseBegin(Phase::Validate),
            },
            TraceEvent {
                at: Cycles::new(9),
                node: 1,
                slot: NO_SLOT,
                kind: EventKind::VerbSend {
                    verb: Verb::Ack,
                    dst: 0,
                    bytes: 64,
                },
            },
        ];
        let s = events_to_jsonl(&events);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"cy\":5,\"node\":1,\"slot\":2,\"cat\":\"phase\",\"ev\":\"phase_begin\",\"phase\":\"validate\"}"
        );
        // Node-scoped events omit the slot field entirely.
        assert!(!lines[1].contains("slot"));
        assert!(lines[1].contains("\"verb\":\"ack\""));
    }

    #[test]
    fn rendering_is_deterministic() {
        let ev = TraceEvent {
            at: Cycles::new(1),
            node: 0,
            slot: 0,
            kind: EventKind::TxnAbort { reason: "fp" },
        };
        assert_eq!(events_to_jsonl(&[ev]), events_to_jsonl(&[ev]));
    }
}
