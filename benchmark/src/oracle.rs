//! The correctness oracle: a mirror of what every block must hold.
//!
//! Every response of every window goes through [`Mirror::judge`]: a
//! read must return the mirrored bytes, a write updates them. On a
//! persistent workload the mirror also keeps an undo log of the blocks
//! written since the last acknowledged `Flush`, so that after a power
//! cut it can fall back to exactly the image that was promised durable.

use pmck_core::{CoreError, Request, Response};

use crate::stream::Block;

/// What the oracle made of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The response is what the mirror predicts.
    Ok,
    /// The program answered with an error.
    Error,
    /// The program answered, but not with the mirrored data (or with a
    /// response of the wrong kind).
    Mismatch,
}

/// Failure counts of a run. `attempted` counts every request judged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests submitted and judged.
    pub attempted: u64,
    /// Requests the program answered with an error.
    pub errors: u64,
    /// Reads that returned other bytes than the mirror holds.
    pub mismatches: u64,
    /// `try_submit` calls refused with backpressure and retried. Every
    /// refused request is retried until served, so none of these is a
    /// failed operation.
    pub backpressure_retries: u64,
}

impl Tally {
    /// Records one verdict.
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Error => self.errors += 1,
            Verdict::Mismatch => self.mismatches += 1,
        }
    }

    /// Operations that failed: errors plus mirror mismatches.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Blocks written since the last acknowledged flush, with the contents
/// they had at that flush.
struct Undo {
    log: Vec<(u32, Block)>,
    logged: Vec<bool>,
}

/// The expected contents of every block.
pub struct Mirror {
    blocks: Vec<Block>,
    undo: Option<Undo>,
}

impl Mirror {
    /// A mirror of a device prefilled with `blocks`. With `durable` set
    /// it tracks the last flushed image for [`Mirror::power_cut`].
    pub fn new(blocks: Vec<Block>, durable: bool) -> Self {
        let undo = durable.then(|| Undo {
            log: Vec::new(),
            logged: vec![false; blocks.len()],
        });
        Mirror { blocks, undo }
    }

    /// Number of mirrored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the mirror holds no block.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The expected contents of block `addr`.
    pub fn block(&self, addr: u64) -> &Block {
        &self.blocks[addr as usize]
    }

    /// Flips one bit of one mirrored block: the smoke test uses it to
    /// prove that the oracle fires.
    pub fn corrupt(&mut self, addr: u64) {
        self.blocks[addr as usize][0] ^= 1;
    }

    fn store(&mut self, addr: u64, f: impl FnOnce(&mut Block)) {
        let slot = &mut self.blocks[addr as usize];
        if let Some(undo) = &mut self.undo {
            if !std::mem::replace(&mut undo.logged[addr as usize], true) {
                undo.log.push((addr as u32, *slot));
            }
        }
        f(slot);
    }

    /// Judges the response to `req` and applies the request's effect.
    /// Responses must be judged in the order the program executed the
    /// requests.
    pub fn judge(&mut self, req: &Request, resp: &Result<Response, CoreError>) -> Verdict {
        let resp = match resp {
            Ok(resp) => resp,
            Err(_) => return Verdict::Error,
        };
        match (req, resp) {
            (Request::Read(addr), Response::Read(out)) => {
                if out.data == self.blocks[*addr as usize] {
                    Verdict::Ok
                } else {
                    Verdict::Mismatch
                }
            }
            (Request::Write { addr, data }, Response::Written) => {
                self.store(*addr, |slot| *slot = *data);
                Verdict::Ok
            }
            (Request::WriteSum { addr, data }, Response::Written) => {
                self.store(*addr, |slot| {
                    slot.iter_mut().zip(data).for_each(|(b, d)| *b ^= d)
                });
                Verdict::Ok
            }
            (Request::Flush, Response::Flushed { .. }) => {
                if let Some(undo) = &mut self.undo {
                    for (addr, _) in undo.log.drain(..) {
                        undo.logged[addr as usize] = false;
                    }
                }
                Verdict::Ok
            }
            (Request::PowerCut, Response::PowerLost { .. }) => {
                self.power_cut();
                Verdict::Ok
            }
            (Request::Recover, Response::Recovered(_))
            | (Request::BootScrub, Response::BootScrubbed(_))
            | (Request::InjectRber(_), Response::Injected { .. }) => Verdict::Ok,
            _ => Verdict::Mismatch,
        }
    }

    /// Falls back to the image of the last acknowledged flush: what a
    /// persistent device must hold after losing power.
    fn power_cut(&mut self) {
        if let Some(undo) = &mut self.undo {
            for (addr, old) in undo.log.drain(..).rev() {
                self.blocks[addr as usize] = old;
                undo.logged[addr as usize] = false;
            }
        }
    }

    /// Blocks written since the last acknowledged flush.
    pub fn unflushed_blocks(&self) -> usize {
        self.undo.as_ref().map_or(0, |u| u.log.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_core::{ReadOutcome, ReadPath};

    fn read_of(data: Block) -> Result<Response, CoreError> {
        Ok(Response::Read(ReadOutcome {
            data,
            path: ReadPath::Clean,
        }))
    }

    #[test]
    fn reads_are_checked_and_writes_applied() {
        let mut m = Mirror::new(vec![[1; 64], [2; 64]], false);
        assert_eq!(m.judge(&Request::Read(1), &read_of([2; 64])), Verdict::Ok);
        assert_eq!(
            m.judge(&Request::Read(1), &read_of([3; 64])),
            Verdict::Mismatch
        );
        let w = Request::Write {
            addr: 0,
            data: [9; 64],
        };
        assert_eq!(m.judge(&w, &Ok(Response::Written)), Verdict::Ok);
        let s = Request::WriteSum {
            addr: 0,
            data: [1; 64],
        };
        assert_eq!(m.judge(&s, &Ok(Response::Written)), Verdict::Ok);
        assert_eq!(m.block(0), &[8; 64]);
        assert_eq!(
            m.judge(&Request::Read(0), &Err(CoreError::Uncorrectable)),
            Verdict::Error
        );
        assert_eq!(
            m.judge(&Request::Read(0), &Ok(Response::Written)),
            Verdict::Mismatch
        );
    }

    #[test]
    fn power_cut_returns_to_the_last_flushed_image() {
        let mut m = Mirror::new(vec![[0; 64]; 4], true);
        let write = |addr, v| Request::Write {
            addr,
            data: [v; 64],
        };
        m.judge(&write(1, 5), &Ok(Response::Written));
        m.judge(&Request::Flush, &Ok(Response::Flushed { lines: 1 }));
        m.judge(&write(1, 6), &Ok(Response::Written));
        m.judge(&write(1, 7), &Ok(Response::Written));
        m.judge(&write(2, 8), &Ok(Response::Written));
        assert_eq!(m.unflushed_blocks(), 2);
        m.judge(
            &Request::PowerCut,
            &Ok(Response::PowerLost { lost_lines: 2 }),
        );
        assert_eq!(m.block(1), &[5; 64]);
        assert_eq!(m.block(2), &[0; 64]);
        assert_eq!(m.unflushed_blocks(), 0);
    }
}
