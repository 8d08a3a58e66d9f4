//! The in-process twin: replays a workload's request sequence on its own
//! `DynamicEngine` to produce the oracle every served answer is checked
//! against, and, in a traced run, child spans around each layer's public
//! functions.

use crate::serve::{engine_answer, Answer};
use crate::trace::{Tracer, NO_PARENT};
use std::path::PathBuf;
use std::time::Instant;
use tkd_core::{
    Algorithm, BatchReport, DynamicEngine, EngineQuery, PruneStats, StandingId, StandingSpec,
    UpdateOp,
};
use tkd_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use tkd_serve::{QuerySpec, Request, Response, UpdateAck, WireEntry};

/// The two TKDQL statement shapes the read mix sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Unscoped,
    Subspace,
}

pub struct Replay {
    pub tracer: Tracer,
    /// Record layer spans (wire codec, store rewrite, the plain twin).
    pub trace: bool,
    /// Answers every request; holds the standing queries, if any.
    pub twin: DynamicEngine,
    pub subs: Vec<StandingId>,
    /// Traced write mix: the same batches without standing queries, so
    /// `apply_ops` is timed with and without them.
    pub plain: Option<DynamicEngine>,
    /// Traced write mix: rewrite this snapshot after every batch, as the
    /// server does.
    pub snapshot: Option<PathBuf>,
    pub prune: PruneStats,
    pub queries: usize,
    pub entries: usize,
    pub request_bytes: usize,
    pub response_bytes: usize,
    pub frames: usize,
    pub snapshot_bytes: usize,
    pub batches: usize,
}

impl Replay {
    pub fn new(twin: DynamicEngine, trace: bool) -> Replay {
        Replay {
            tracer: Tracer::new(Instant::now(), if trace { 1 << 16 } else { 0 }),
            trace,
            twin,
            subs: Vec::new(),
            plain: None,
            snapshot: None,
            prune: PruneStats::default(),
            queries: 0,
            entries: 0,
            request_bytes: 0,
            response_bytes: 0,
            frames: 0,
            snapshot_bytes: 0,
            batches: 0,
        }
    }

    fn open(&mut self, req: u64) -> u32 {
        if self.trace {
            self.tracer.open("replay", NO_PARENT, req)
        } else {
            NO_PARENT
        }
    }

    fn close(&mut self, root: u32) {
        if self.trace {
            self.tracer.close(root);
        }
    }

    /// Encode and decode a request frame the way client and server do.
    fn wire_request(&mut self, root: u32, req: u64, request: &Request) {
        if !self.trace {
            return;
        }
        let frame = self
            .tracer
            .time("wire.encode", root, req, || encode_request(request))
            .expect("benchmark requests encode");
        self.tracer
            .time("wire.decode", root, req, || decode_request(&frame))
            .expect("benchmark requests decode");
        self.request_bytes += frame.len();
        self.frames += 1;
    }

    fn wire_response(&mut self, root: u32, req: u64, response: &Response) {
        if !self.trace {
            return;
        }
        let frame = self
            .tracer
            .time("wire.encode", root, req, || encode_response(response))
            .expect("benchmark responses encode");
        self.tracer
            .time("wire.decode", root, req, || decode_response(&frame))
            .expect("benchmark responses decode");
        self.response_bytes += frame.len();
    }

    pub fn query(&mut self, req: u64, spec: QuerySpec) -> Answer {
        let root = self.open(req);
        self.wire_request(root, req, &Request::Query(spec));
        let q = EngineQuery::new(spec.k as usize).algorithm(spec.algorithm);
        let name = match (spec.algorithm, spec.k) {
            (Algorithm::Big, 8) => "engine.big8",
            (Algorithm::Big, 64) => "engine.big64",
            (Algorithm::Ibig, 8) => "engine.ibig8",
            _ => "engine.query",
        };
        let twin = &mut self.twin;
        let result = self
            .tracer
            .time(name, root, req, || twin.query(&q))
            .expect("BIG and IBIG are served");
        let s = result.stats;
        self.prune.h1_pruned += s.h1_pruned;
        self.prune.h2_pruned += s.h2_pruned;
        self.prune.h3_pruned += s.h3_pruned;
        self.prune.scored += s.scored;
        self.queries += 1;
        self.entries += result.len();
        let answer = engine_answer(result.entries());
        self.wire_response(root, req, &Response::QueryResult(to_wire(&answer)));
        self.close(root);
        answer
    }

    /// Run a statement the way the server's text path does: parse, bind
    /// and plan, then execute on the engine.
    pub fn text(&mut self, req: u64, shape: Shape, text: &str) -> Answer {
        let root = self.open(req);
        self.wire_request(root, req, &Request::QueryText(text.to_string()));
        let [parse, plan, exec] = match shape {
            Shape::Unscoped => ["ql.unscoped.parse", "ql.unscoped.plan", "ql.unscoped.exec"],
            Shape::Subspace => ["ql.subspace.parse", "ql.subspace.plan", "ql.subspace.exec"],
        };
        let dims = self.twin.dims();
        let stmt = self
            .tracer
            .time(parse, root, req, || tkd_ql::parse(text))
            .expect("benchmark statements parse");
        let planned = self
            .tracer
            .time(plan, root, req, || {
                tkd_ql::bind(&stmt, dims).and_then(tkd_ql::optimizer::plan)
            })
            .expect("benchmark statements plan");
        let twin = &mut self.twin;
        let outcome = self
            .tracer
            .time(exec, root, req, || tkd_ql::run_on_engine(&planned, twin))
            .expect("benchmark statements run");
        let tkd_ql::Outcome::Rows(rows) = outcome else {
            panic!("a SELECT answers with rows");
        };
        let answer = engine_answer(rows.entries());
        self.wire_response(root, req, &Response::QueryResult(to_wire(&answer)));
        self.close(root);
        answer
    }

    /// Apply one batch; returns the twin's report and the ack the server
    /// should send for it (its `seq` is the batch count so far).
    pub fn batch(&mut self, req: u64, ops: &[UpdateOp]) -> (BatchReport, UpdateAck) {
        let root = self.open(req);
        self.wire_request(root, req, &Request::UpdateOps(ops.to_vec()));
        if let Some(plain) = &mut self.plain {
            let report = self
                .tracer
                .time("maint.apply", root, req, || plain.apply_ops(ops));
            assert!(report.error.is_none(), "generated batches apply");
        }
        let name = if self.plain.is_some() {
            "standing.apply"
        } else {
            "maint.apply"
        };
        let twin = &mut self.twin;
        let report = self.tracer.time(name, root, req, || twin.apply_ops(ops));
        if let Some(path) = &self.snapshot {
            let twin = &mut self.twin;
            let bytes = self
                .tracer
                .time("store.encode", root, req, || tkd_store::encode_engine(twin));
            self.tracer
                .time("store.rewrite", root, req, || {
                    tkd_store::atomic_rewrite(path, &bytes)
                })
                .expect("twin snapshot rewrite");
            self.snapshot_bytes += bytes.len();
        }
        self.batches += 1;
        let ack = UpdateAck {
            applied: report.applied as u64,
            seq: self.batches as u64,
            epoch: self.twin.epoch(),
            live: self.twin.len() as u64,
            tombstones: self.twin.tombstones() as u64,
            inserted_ids: report
                .inserted_ids
                .iter()
                .map(|&id| u64::from(id))
                .collect(),
        };
        self.wire_response(root, req, &Response::UpdateAck(ack.clone()));
        self.close(root);
        (report, ack)
    }

    /// Register standing queries on the twin, in the order the
    /// subscriber registers them on the server.
    pub fn subscribe(&mut self, specs: &[StandingSpec]) -> Vec<Answer> {
        specs
            .iter()
            .map(|spec| {
                let id = self
                    .twin
                    .register(spec.clone())
                    .expect("valid standing spec");
                self.subs.push(id);
                engine_answer(self.twin.standing_result(id).expect("registered"))
            })
            .collect()
    }
}

pub fn to_wire(answer: &Answer) -> Vec<WireEntry> {
    answer
        .iter()
        .map(|&(id, score)| WireEntry { id, score })
        .collect()
}
