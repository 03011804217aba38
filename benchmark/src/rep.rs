//! What one repetition — one child process running one workload once —
//! reports to the runner.

use crate::json::Json;
use std::collections::BTreeMap;

/// Raw measurements of one repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Wall time from process start to the first timed operation.
    pub setup_s: f64,
    /// Wall and CPU time of the timed phase, and the operations it completed.
    pub timed_wall_s: f64,
    pub cpu_ms: f64,
    pub ops: u64,
    pub op_p50_us: f64,
    pub op_tail_us: f64,
    /// The percentile `op_tail_us` is.
    pub tail_pct: u32,
    pub verdict_ms: f64,
    /// Wall time of all the verdict calls together: what was actually timed.
    pub verdict_block_ms: f64,
    pub scaling_exp: f64,
    pub detect_lag_ops: f64,
    pub peak_rss_mb: f64,
    /// Oracle bookkeeping: everything checked, and everything that was wrong.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Exact counts that must repeat for one seed.
    pub counts: BTreeMap<String, f64>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<String, f64>,
}

impl Rep {
    /// Records an oracle failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what.to_string());
            }
        }
    }

    /// The value of end-to-end metric `name`.
    pub fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "ops_per_s" => self.ops as f64 / self.timed_wall_s,
            "op_p50_us" => self.op_p50_us,
            "op_tail_us" => self.op_tail_us,
            "verdict_ms" => self.verdict_ms,
            "peak_rss_mb" => self.peak_rss_mb,
            "cpu_ms_per_kop" => self.cpu_ms / self.ops as f64 * 1e3,
            "scaling_exp" => self.scaling_exp,
            "detect_lag_ops" => self.detect_lag_ops,
            other => panic!("{other} is not an end-to-end metric"),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::object([
            ("setup_s", Json::Num(self.setup_s)),
            ("timed_wall_s", Json::Num(self.timed_wall_s)),
            ("cpu_ms", Json::Num(self.cpu_ms)),
            ("ops", Json::Num(self.ops as f64)),
            ("op_p50_us", Json::Num(self.op_p50_us)),
            ("op_tail_us", Json::Num(self.op_tail_us)),
            ("tail_pct", Json::Num(f64::from(self.tail_pct))),
            ("verdict_ms", Json::Num(self.verdict_ms)),
            ("verdict_block_ms", Json::Num(self.verdict_block_ms)),
            ("scaling_exp", Json::Num(self.scaling_exp)),
            ("detect_lag_ops", Json::Num(self.detect_lag_ops)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("counts", Json::numbers(&self.counts)),
            ("layers", Json::numbers(&self.layers)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Rep, String> {
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::num)
                .ok_or_else(|| format!("repetition result lacks number {key:?}"))
        };
        let map = |key: &str| -> BTreeMap<String, f64> {
            json.get(key)
                .and_then(Json::obj)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
                        .collect()
                })
                .unwrap_or_default()
        };
        Ok(Rep {
            setup_s: num("setup_s")?,
            timed_wall_s: num("timed_wall_s")?,
            cpu_ms: num("cpu_ms")?,
            ops: num("ops")? as u64,
            op_p50_us: num("op_p50_us")?,
            op_tail_us: num("op_tail_us")?,
            tail_pct: num("tail_pct")? as u32,
            verdict_ms: num("verdict_ms")?,
            verdict_block_ms: num("verdict_block_ms")?,
            scaling_exp: num("scaling_exp")?,
            detect_lag_ops: num("detect_lag_ops")?,
            peak_rss_mb: num("peak_rss_mb")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: json
                .get("failures")
                .map(|f| {
                    f.arr()
                        .iter()
                        .filter_map(|s| Some(s.str()?.to_string()))
                        .collect()
                })
                .unwrap_or_default(),
            counts: map("counts"),
            layers: map("layers"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let mut rep = Rep {
            setup_s: 0.31,
            timed_wall_s: 2.0,
            cpu_ms: 1990.5,
            ops: 240,
            tail_pct: 95,
            ..Rep::default()
        };
        rep.expect(false, "an oracle failed");
        rep.counts.insert("input.enqueues".into(), 117.0);
        let back = Rep::from_json(&Json::parse(&rep.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.end_to_end("ops_per_s"), 120.0);
        assert_eq!(back.failed, 1);
    }
}
