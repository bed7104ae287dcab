//! Per-bank row-buffer state machine with timeout-based row closure.

use crate::config::Timing;

/// How an access found the bank's row buffer.
// "Row hit / row closed / row conflict" is the standard DRAM vocabulary;
// stripping the prefix would lose the domain terms.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// The target row was open: column access only.
    RowHit,
    /// The bank was precharged (row closed): activate + column access.
    RowClosed,
    /// A different row was open: precharge + activate + column access.
    RowConflict,
}

/// State of one bank: the open row (if any), when the bank is next able
/// to accept a command, and the bookkeeping for timeout-based closure.
#[derive(Debug, Clone, Default)]
pub struct BankState {
    /// Currently open row, if the row buffer is valid.
    open_row: Option<u64>,
    /// Earliest time the bank can issue the next column command.
    busy_until_ps: u64,
    /// Earliest time the row may be precharged (write recovery).
    precharge_ok_ps: u64,
    /// Last column-command completion (starts the idle-close timer).
    last_activity_ps: u64,
}

/// The outcome of planning an access on a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPlan {
    /// When the column command can issue.
    pub issue_ps: u64,
    /// When the data burst completes (read data available / write data
    /// absorbed into the row buffer).
    pub complete_ps: u64,
    /// How the row buffer was found.
    pub class: AccessClass,
    /// Whether this access implicitly closed a previously open row (by
    /// timeout or by conflict precharge) — the EUR drains at that point.
    pub closed_row: Option<u64>,
}

impl BankState {
    /// A fresh bank: precharged, idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently open row, if any (after applying the idle-close
    /// timeout at time `now`).
    pub fn open_row_at(&self, now_ps: u64, idle_close_ps: u64) -> Option<u64> {
        let row = self.open_row?;
        let close_at = self.close_time(idle_close_ps)?;
        if now_ps >= close_at {
            None
        } else {
            Some(row)
        }
    }

    /// When the open row will be closed by the idle timer (respecting
    /// write recovery), or `None` if no row is open.
    pub fn close_time(&self, idle_close_ps: u64) -> Option<u64> {
        self.open_row?;
        Some((self.last_activity_ps + idle_close_ps).max(self.precharge_ok_ps))
    }

    /// Plans an access to `row` no earlier than `earliest_ps`, without
    /// committing it. `is_write` selects write recovery accounting.
    pub fn plan(
        &self,
        row: u64,
        is_write: bool,
        earliest_ps: u64,
        timing: &Timing,
        idle_close_ps: u64,
    ) -> AccessPlan {
        let _ = is_write;
        let t0 = earliest_ps.max(self.busy_until_ps);
        let (class, issue_ps, closed_row) = match self.open_row {
            Some(open) => {
                let close_at = self
                    .close_time(idle_close_ps)
                    .expect("row open implies close time");
                if t0 >= close_at {
                    // Closed in the background by the idle timer.
                    (AccessClass::RowClosed, t0, Some(open))
                } else if open == row {
                    (AccessClass::RowHit, t0, None)
                } else {
                    // Explicit precharge: must respect write recovery.
                    let pre_start = t0.max(self.precharge_ok_ps);
                    (AccessClass::RowConflict, pre_start, Some(open))
                }
            }
            None => (AccessClass::RowClosed, t0, None),
        };
        let access = match class {
            AccessClass::RowHit => timing.t_cas + timing.t_burst,
            AccessClass::RowClosed => timing.t_rcd + timing.t_cas + timing.t_burst,
            AccessClass::RowConflict => timing.t_rp + timing.t_rcd + timing.t_cas + timing.t_burst,
        };
        AccessPlan {
            issue_ps,
            complete_ps: issue_ps + access,
            class,
            closed_row,
        }
    }

    /// Commits a previously planned access: updates the open row, busy
    /// time, write-recovery window, and idle timer.
    pub fn commit(&mut self, row: u64, is_write: bool, plan: &AccessPlan, timing: &Timing) {
        self.open_row = Some(row);
        self.busy_until_ps = plan.complete_ps;
        self.last_activity_ps = plan.complete_ps;
        if is_write {
            // The row may not be precharged until write recovery elapses.
            self.precharge_ok_ps = plan.complete_ps + timing.t_wr;
            // The next *activate-requiring* command is also blocked, which
            // `plan` realizes through precharge_ok on conflict and the
            // close_time floor on timeout closure.
        } else {
            self.precharge_ok_ps = self.precharge_ok_ps.max(plan.complete_ps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Timing, NS};

    fn t() -> Timing {
        Timing::ddr4_2400()
    }

    const IDLE: u64 = 50 * NS;

    #[test]
    fn first_access_is_row_closed() {
        let b = BankState::new();
        let plan = b.plan(5, false, 0, &t(), IDLE);
        assert_eq!(plan.class, AccessClass::RowClosed);
        assert_eq!(plan.issue_ps, 0);
        assert_eq!(plan.complete_ps, t().t_rcd + t().t_cas + t().t_burst);
    }

    #[test]
    fn back_to_back_same_row_hits() {
        let mut b = BankState::new();
        let p1 = b.plan(5, false, 0, &t(), IDLE);
        b.commit(5, false, &p1, &t());
        let p2 = b.plan(5, false, p1.complete_ps, &t(), IDLE);
        assert_eq!(p2.class, AccessClass::RowHit);
        assert_eq!(p2.complete_ps - p2.issue_ps, t().t_cas + t().t_burst);
    }

    #[test]
    fn different_row_conflicts_when_open() {
        let mut b = BankState::new();
        let p1 = b.plan(5, false, 0, &t(), IDLE);
        b.commit(5, false, &p1, &t());
        let p2 = b.plan(9, false, p1.complete_ps + NS, &t(), IDLE);
        assert_eq!(p2.class, AccessClass::RowConflict);
        assert_eq!(p2.closed_row, Some(5));
    }

    #[test]
    fn idle_timeout_closes_row() {
        let mut b = BankState::new();
        let p1 = b.plan(5, false, 0, &t(), IDLE);
        b.commit(5, false, &p1, &t());
        // Long after the idle window: the row closed in the background.
        let later = p1.complete_ps + IDLE + NS;
        assert_eq!(b.open_row_at(later, IDLE), None);
        let p2 = b.plan(9, false, later, &t(), IDLE);
        assert_eq!(p2.class, AccessClass::RowClosed);
        assert_eq!(p2.closed_row, Some(5), "timeout closure reported");
    }

    #[test]
    fn write_recovery_delays_conflict_precharge() {
        let nvram = Timing {
            t_wr: 300 * NS,
            ..t()
        };
        let mut b = BankState::new();
        let pw = b.plan(5, true, 0, &nvram, IDLE);
        b.commit(5, true, &pw, &nvram);
        // Immediately after the write, a conflicting access must wait out
        // write recovery before precharging.
        let pc = b.plan(9, false, pw.complete_ps, &nvram, IDLE);
        assert_eq!(pc.class, AccessClass::RowConflict);
        assert!(pc.issue_ps >= pw.complete_ps + 300 * NS);
        // But a row hit right after the burst does not wait for tWR.
        let ph = b.plan(5, false, pw.complete_ps, &nvram, IDLE);
        assert_eq!(ph.class, AccessClass::RowHit);
        assert_eq!(ph.issue_ps, pw.complete_ps);
    }

    #[test]
    fn write_recovery_extends_idle_close() {
        let nvram = Timing {
            t_wr: 300 * NS,
            ..t()
        };
        let mut b = BankState::new();
        let pw = b.plan(5, true, 0, &nvram, IDLE);
        b.commit(5, true, &pw, &nvram);
        let close = b.close_time(IDLE).unwrap();
        assert!(close >= pw.complete_ps + 300 * NS);
    }

    #[test]
    fn hit_latency_lt_closed_lt_conflict() {
        let timing = t();
        let hit = timing.t_cas + timing.t_burst;
        let closed = timing.t_rcd + hit;
        let conflict = timing.t_rp + closed;
        assert!(hit < closed && closed < conflict);
    }
}
