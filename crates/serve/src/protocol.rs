//! The versioned JSON-lines job protocol.
//!
//! One request per line, one response per line, over TCP or stdio. Every
//! message is a JSON object carrying `"v": 1`; requests add `"cmd"` and
//! responses add `"ok"`. Unknown versions, unknown commands and malformed
//! JSON all produce an `{"ok": false, "error": ...}` response — a protocol
//! error never kills the connection, let alone the server.
//!
//! ```text
//! -> {"v":1,"cmd":"submit","subject":"Libtiff/CVE-2016-3623","max_iterations":12}
//! <- {"v":1,"ok":true,"job":1}
//! -> {"v":1,"cmd":"status","job":1}
//! <- {"v":1,"ok":true,"job":1,"subject":"...","state":"running","iterations":4,...}
//! ```
//!
//! See `DESIGN.md` §4.7 for the full schema with one example per message
//! type.

use cpr_core::{RankedPatch, RepairReport};

use crate::json::{self, Json};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: i64 = 1;

/// Hard cap on one request line, newline included. A line that grows past
/// this without terminating is answered with a typed
/// [`ERR_REQUEST_TOO_LARGE`] error instead of being buffered without
/// bound — an unbounded line buffer is a memory-exhaustion vector. Real
/// requests are tiny (the largest, `submit` and `inject`, stay well under
/// a kilobyte), so the cap is generous by three orders of magnitude.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Typed error code: the server refused work because a bounded queue
/// (accepted connections or submitted jobs) is full. Clients should back
/// off and retry.
pub const ERR_OVERLOADED: &str = "overloaded";

/// Typed error code: a request line exceeded [`MAX_REQUEST_BYTES`].
pub const ERR_REQUEST_TOO_LARGE: &str = "request-too-large";

/// A protocol-level failure: a human-readable message plus an optional
/// machine-readable code (`"overloaded"`, `"request-too-large"`).
/// Responses for errors without a code are byte-identical to what
/// protocol v1 always produced; the `code` field is additive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    code: Option<&'static str>,
    message: String,
}

impl ServeError {
    /// An untyped (message-only) error — the protocol v1 shape.
    pub fn msg(message: impl Into<String>) -> ServeError {
        ServeError {
            code: None,
            message: message.into(),
        }
    }

    /// A typed error carrying a machine-readable code.
    pub fn coded(code: &'static str, message: impl Into<String>) -> ServeError {
        ServeError {
            code: Some(code),
            message: message.into(),
        }
    }

    /// The machine-readable code, when one applies.
    pub fn code(&self) -> Option<&'static str> {
        self.code
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Convenience for tests and callers that match on the message.
    pub fn contains(&self, needle: &str) -> bool {
        self.message.contains(needle)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for ServeError {
    fn from(message: String) -> ServeError {
        ServeError::msg(message)
    }
}

impl From<&str> for ServeError {
    fn from(message: &str) -> ServeError {
        ServeError::msg(message)
    }
}

/// What a client asks a job to be: a registry subject plus optional
/// budget / parallelism overrides on top of [`cpr_core::RepairConfig`]'s
/// quick profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Registry subject name (`cpr subjects` lists them), e.g.
    /// `Libtiff/CVE-2016-3623`.
    pub subject: String,
    /// Repair-loop iteration budget (`RepairConfig::max_iterations`).
    pub max_iterations: Option<usize>,
    /// Exploration wall-clock budget (`RepairConfig::max_millis`).
    pub time_budget_ms: Option<u64>,
    /// Worker threads inside the job (`RepairConfig::threads`).
    pub threads: Option<usize>,
    /// Snapshot the job to the durable store every this many driver steps.
    pub checkpoint_every: Option<usize>,
    /// Warm start: adopt the durable snapshot stored for this previous job
    /// id (typically parked by an earlier server process over the same
    /// state directory) and continue it under the new job's id. The
    /// snapshot must exist and match the subject, or the submit fails —
    /// a new job never picks up an old checkpoint implicitly.
    pub resume_from: Option<u64>,
}

impl JobSpec {
    /// A spec with no overrides.
    pub fn new(subject: impl Into<String>) -> Self {
        JobSpec {
            subject: subject.into(),
            max_iterations: None,
            time_budget_ms: None,
            threads: None,
            checkpoint_every: None,
            resume_from: None,
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue a new repair job.
    Submit(JobSpec),
    /// Job status; without an id, the status of every job.
    Status(Option<u64>),
    /// Stop a job, leaving a resumable snapshot.
    Cancel(u64),
    /// Suspend a job, leaving a resumable snapshot.
    Pause(u64),
    /// Re-enqueue a paused or canceled job; it continues from its latest
    /// snapshot, bit-identically.
    Resume(u64),
    /// The final report of a completed job.
    Report(u64),
    /// Stream an input into a live job's driver between steps — the
    /// continuous-repair verb (`cpr fuzz` uses it to feed freshly found
    /// failing inputs into an in-flight repair).
    Inject {
        /// Target job id; must not be terminal.
        job: u64,
        /// Input valuation, name → value, canonically sorted by name.
        input: Vec<(String, i64)>,
    },
    /// Process-wide metrics plus per-job observability tallies (see
    /// [`crate::stats`] for the response shape).
    Stats,
    /// Stop the server: running jobs are checkpointed and the listener
    /// exits.
    Shutdown,
}

impl Request {
    /// Parses one protocol line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let version = v
            .get("v")
            .and_then(Json::as_i64)
            .ok_or("missing protocol version field \"v\"")?;
        if version != PROTOCOL_VERSION {
            return Err(format!(
                "unsupported protocol version {version} (this server speaks {PROTOCOL_VERSION})"
            ));
        }
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing \"cmd\"")?;
        let job = |required: bool| -> Result<Option<u64>, String> {
            match v.get("job") {
                Some(j) => Ok(Some(
                    j.as_u64().ok_or("\"job\" must be a non-negative integer")?,
                )),
                None if required => Err(format!("\"{cmd}\" needs a \"job\" id")),
                None => Ok(None),
            }
        };
        match cmd {
            "submit" => {
                let subject = v
                    .get("subject")
                    .and_then(Json::as_str)
                    .ok_or("\"submit\" needs a \"subject\" name")?
                    .to_owned();
                let field_usize = |name: &str| -> Result<Option<usize>, String> {
                    v.get(name)
                        .map(|x| {
                            x.as_usize()
                                .ok_or(format!("\"{name}\" must be a non-negative integer"))
                        })
                        .transpose()
                };
                Ok(Request::Submit(JobSpec {
                    subject,
                    max_iterations: field_usize("max_iterations")?,
                    time_budget_ms: v
                        .get("time_budget_ms")
                        .map(|x| {
                            x.as_u64()
                                .ok_or("\"time_budget_ms\" must be a non-negative integer")
                        })
                        .transpose()?,
                    threads: field_usize("threads")?,
                    checkpoint_every: field_usize("checkpoint_every")?,
                    resume_from: v
                        .get("resume_from")
                        .map(|x| {
                            x.as_u64()
                                .ok_or("\"resume_from\" must be a non-negative integer")
                        })
                        .transpose()?,
                }))
            }
            "status" => Ok(Request::Status(job(false)?)),
            "cancel" => Ok(Request::Cancel(job(true)?.unwrap())),
            "pause" => Ok(Request::Pause(job(true)?.unwrap())),
            "resume" => Ok(Request::Resume(job(true)?.unwrap())),
            "report" => Ok(Request::Report(job(true)?.unwrap())),
            "inject" => {
                let id = job(true)?.unwrap();
                let obj = v
                    .get("input")
                    .ok_or("\"inject\" needs an \"input\" object")?;
                let Json::Obj(fields) = obj else {
                    return Err("\"input\" must be an object of integer values".into());
                };
                let mut input = Vec::with_capacity(fields.len());
                for (name, value) in fields {
                    let value = value
                        .as_i64()
                        .ok_or(format!("input value \"{name}\" must be an integer"))?;
                    input.push((name.clone(), value));
                }
                input.sort();
                Ok(Request::Inject { job: id, input })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => {
                // Echo at most a fixed prefix of the unknown verb: error
                // responses go back over the wire, and an attacker-sized
                // verb must not be reflected in full.
                const VERB_ECHO_CAP: usize = 32;
                let mut shown: String = other.chars().take(VERB_ECHO_CAP).collect();
                if other.chars().count() > VERB_ECHO_CAP {
                    shown.push('…');
                }
                Err(format!("unknown command \"{shown}\""))
            }
        }
    }

    /// Serializes the request as one protocol line (the client side).
    pub fn to_line(&self) -> String {
        let mut pairs: Vec<(&str, Json)> = vec![("v", Json::Int(PROTOCOL_VERSION))];
        let push_job = |pairs: &mut Vec<(&str, Json)>, cmd: &'static str, id: u64| {
            pairs.push(("cmd", Json::Str(cmd.into())));
            pairs.push(("job", Json::Int(id as i64)));
        };
        match self {
            Request::Submit(spec) => {
                pairs.push(("cmd", Json::Str("submit".into())));
                pairs.push(("subject", Json::Str(spec.subject.clone())));
                if let Some(n) = spec.max_iterations {
                    pairs.push(("max_iterations", Json::Int(n as i64)));
                }
                if let Some(n) = spec.time_budget_ms {
                    pairs.push(("time_budget_ms", Json::Int(n as i64)));
                }
                if let Some(n) = spec.threads {
                    pairs.push(("threads", Json::Int(n as i64)));
                }
                if let Some(n) = spec.checkpoint_every {
                    pairs.push(("checkpoint_every", Json::Int(n as i64)));
                }
                if let Some(n) = spec.resume_from {
                    pairs.push(("resume_from", Json::Int(n as i64)));
                }
            }
            Request::Status(None) => pairs.push(("cmd", Json::Str("status".into()))),
            Request::Status(Some(id)) => push_job(&mut pairs, "status", *id),
            Request::Cancel(id) => push_job(&mut pairs, "cancel", *id),
            Request::Pause(id) => push_job(&mut pairs, "pause", *id),
            Request::Resume(id) => push_job(&mut pairs, "resume", *id),
            Request::Report(id) => push_job(&mut pairs, "report", *id),
            Request::Inject { job, input } => {
                push_job(&mut pairs, "inject", *job);
                let mut sorted = input.clone();
                sorted.sort();
                pairs.push((
                    "input",
                    Json::Obj(sorted.into_iter().map(|(k, v)| (k, Json::Int(v))).collect()),
                ));
            }
            Request::Stats => pairs.push(("cmd", Json::Str("stats".into()))),
            Request::Shutdown => pairs.push(("cmd", Json::Str("shutdown".into()))),
        }
        Json::obj(pairs).to_line()
    }
}

/// An `{"ok": true, ...}` response carrying `extra` fields.
pub fn ok_response(extra: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("v", Json::Int(PROTOCOL_VERSION)), ("ok", Json::Bool(true))];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// An `{"ok": false, "error": ...}` response.
pub fn error_response(message: &str) -> Json {
    Json::obj(vec![
        ("v", Json::Int(PROTOCOL_VERSION)),
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_owned())),
    ])
}

/// The response for a [`ServeError`]: the v1 error shape, plus a `code`
/// field when the error carries one.
pub fn error_response_for(err: &ServeError) -> Json {
    let mut pairs = vec![
        ("v", Json::Int(PROTOCOL_VERSION)),
        ("ok", Json::Bool(false)),
        ("error", Json::Str(err.message().to_owned())),
    ];
    if let Some(code) = err.code() {
        pairs.push(("code", Json::Str(code.to_owned())));
    }
    Json::obj(pairs)
}

fn u128_str(v: u128) -> Json {
    // u128 counters (concrete patch-space sizes) exceed what JSON numbers
    // carry losslessly, so they travel as decimal strings.
    Json::Str(v.to_string())
}

fn opt<T>(v: Option<T>, f: impl FnOnce(T) -> Json) -> Json {
    v.map_or(Json::Null, f)
}

fn ranked_to_json(p: &RankedPatch) -> Json {
    Json::obj(vec![
        ("id", Json::Int(p.id as i64)),
        ("score", Json::Int(p.score)),
        ("concrete", u128_str(p.concrete)),
        ("deletion_evidence", Json::Int(p.deletion_evidence as i64)),
        ("display", Json::Str(p.display.clone())),
    ])
}

/// Serializes a [`RepairReport`] for the `report` response. Lossless for
/// every field the determinism suite compares (`u128`s travel as strings;
/// ratios keep Rust's shortest-round-trip float formatting).
pub fn report_to_json(r: &RepairReport) -> Json {
    Json::obj(vec![
        ("subject", Json::Str(r.subject.clone())),
        ("p_init", u128_str(r.p_init)),
        ("p_final", u128_str(r.p_final)),
        ("abstract_init", Json::Int(r.abstract_init as i64)),
        ("abstract_final", Json::Int(r.abstract_final as i64)),
        ("paths_explored", Json::Int(r.paths_explored as i64)),
        ("paths_skipped", Json::Int(r.paths_skipped as i64)),
        ("iterations", Json::Int(r.iterations as i64)),
        ("inputs_generated", Json::Int(r.inputs_generated as i64)),
        ("patch_loc_hit_ratio", Json::Float(r.patch_loc_hit_ratio)),
        ("bug_loc_hit_ratio", Json::Float(r.bug_loc_hit_ratio)),
        ("dev_rank", opt(r.dev_rank, |n| Json::Int(n as i64))),
        (
            "history",
            Json::Arr(r.history.iter().map(|h| u128_str(*h)).collect()),
        ),
        ("input_coverage", opt(r.input_coverage, Json::Float)),
        ("wall_millis", Json::Int(r.wall_millis as i64)),
        ("solver_queries", Json::Int(r.solver_queries as i64)),
        (
            "top_patched_source",
            opt(r.top_patched_source.clone(), Json::Str),
        ),
        (
            "ranked",
            Json::Arr(r.ranked.iter().map(ranked_to_json).collect()),
        ),
    ])
}

/// Everything in a serialized report except the wall clock, as one
/// comparable line — the protocol-level analogue of the determinism
/// suite's `report_key`. Two runs of the same job must agree on this
/// string exactly, whether they ran directly, through the server, or
/// across any number of snapshot/resume cycles.
pub fn report_fingerprint(report: &Json) -> String {
    match report {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "wall_millis")
                .cloned()
                .collect(),
        )
        .to_line(),
        other => other.to_line(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_lines() {
        let reqs = [
            Request::Submit(JobSpec {
                subject: "a/b".into(),
                max_iterations: Some(12),
                time_budget_ms: Some(5000),
                threads: Some(2),
                checkpoint_every: Some(3),
                resume_from: Some(17),
            }),
            Request::Submit(JobSpec::new("bare")),
            Request::Status(None),
            Request::Status(Some(4)),
            Request::Cancel(1),
            Request::Pause(2),
            Request::Resume(3),
            Request::Report(9),
            Request::Inject {
                job: 5,
                input: vec![("x".into(), -3), ("y".into(), 0)],
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_line();
            assert_eq!(Request::parse(&line).unwrap(), req, "line {line}");
        }
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        let cases = [
            ("not json", "JSON error"),
            ("{}", "missing protocol version"),
            (r#"{"v":2,"cmd":"status"}"#, "unsupported protocol version"),
            (r#"{"v":1}"#, "missing \"cmd\""),
            (r#"{"v":1,"cmd":"launch"}"#, "unknown command"),
            (r#"{"v":1,"cmd":"submit"}"#, "needs a \"subject\""),
            (r#"{"v":1,"cmd":"cancel"}"#, "needs a \"job\""),
            (r#"{"v":1,"cmd":"cancel","job":-1}"#, "non-negative"),
            (
                r#"{"v":1,"cmd":"submit","subject":"s","max_iterations":"x"}"#,
                "max_iterations",
            ),
            (
                r#"{"v":1,"cmd":"submit","subject":"s","resume_from":-2}"#,
                "resume_from",
            ),
            (r#"{"v":1,"cmd":"inject"}"#, "needs a \"job\""),
            (
                r#"{"v":1,"cmd":"inject","job":"seven","input":{"x":1}}"#,
                "non-negative",
            ),
            (r#"{"v":1,"cmd":"inject","job":3}"#, "needs an \"input\""),
            (
                r#"{"v":1,"cmd":"inject","job":3,"input":[1,2]}"#,
                "must be an object",
            ),
            (
                r#"{"v":1,"cmd":"inject","job":3,"input":{"x":"zero"}}"#,
                "must be an integer",
            ),
        ];
        for (line, needle) in cases {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn inject_canonicalizes_input_order() {
        let a = Request::parse(r#"{"v":1,"cmd":"inject","job":1,"input":{"y":2,"x":1}}"#).unwrap();
        let b = Request::parse(r#"{"v":1,"cmd":"inject","job":1,"input":{"x":1,"y":2}}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_line(), b.to_line());
    }

    #[test]
    fn unknown_verbs_are_echoed_truncated() {
        let long = "x".repeat(4096);
        let err = Request::parse(&format!(r#"{{"v":1,"cmd":"{long}"}}"#)).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(
            err.len() < 80,
            "oversized verb must not be reflected in full: {} bytes",
            err.len()
        );
        assert!(err.contains(&"x".repeat(32)));
        assert!(!err.contains(&"x".repeat(33)));
    }

    #[test]
    fn responses_carry_version_and_ok() {
        let ok = ok_response(vec![("job", Json::Int(7))]);
        assert_eq!(ok.to_line(), r#"{"v":1,"ok":true,"job":7}"#);
        let err = error_response("nope");
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(err.get("error").unwrap().as_str(), Some("nope"));
    }

    #[test]
    fn typed_errors_carry_a_code_and_untyped_ones_stay_v1_identical() {
        let typed = error_response_for(&ServeError::coded(ERR_OVERLOADED, "queue full"));
        assert_eq!(
            typed.to_line(),
            r#"{"v":1,"ok":false,"error":"queue full","code":"overloaded"}"#
        );
        // Message-only errors serialize exactly as `error_response` always
        // has — the `code` field is strictly additive for v1 clients.
        let untyped = error_response_for(&ServeError::msg("nope"));
        assert_eq!(untyped.to_line(), error_response("nope").to_line());
    }

    #[test]
    fn fingerprint_ignores_only_the_wall_clock() {
        let a = json::parse(r#"{"subject":"s","wall_millis":10,"iterations":3}"#).unwrap();
        let b = json::parse(r#"{"subject":"s","wall_millis":99,"iterations":3}"#).unwrap();
        let c = json::parse(r#"{"subject":"s","wall_millis":10,"iterations":4}"#).unwrap();
        assert_eq!(report_fingerprint(&a), report_fingerprint(&b));
        assert_ne!(report_fingerprint(&a), report_fingerprint(&c));
    }
}
