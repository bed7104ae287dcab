//! Write-CRC I/O protection (paper §IV-B, footnote 4).
//!
//! Bitwise-sum writes traverse the memory bus like any other write, so
//! I/O transmission errors could corrupt the sum in flight. The paper
//! notes modern memory chips use **Write-CRC** [77] to detect these
//! errors and alert the processor to retransmit. This module models that
//! link layer: a CRC-16 is computed over each 64 B write payload, a
//! configurable bus fault process may flip bits in flight, and the
//! receiving chip verifies the CRC, triggering bounded retransmission.

use pmck_nvram::BitErrorInjector;
use pmck_rt::rng::Rng;

use crate::device::{AccessContext, BlockDevice, LayerId};
use crate::error::CoreError;
use crate::request::{Request, Response};
use crate::stats::CoreStats;

/// Slicing-by-8 tables of the CRC-16/CCITT polynomial 0x1021
/// (MSB-first): `CRC16_TABLES[k][b]` is the CRC of the byte `b`
/// followed by `k` zero bytes, so eight message bytes fold into the
/// register with eight independent lookups instead of a chain of eight
/// dependent ones. 4 KiB.
const CRC16_TABLES: [[u16; 256]; 8] = {
    let mut t = [[0u16; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = (b as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc << 1) ^ (0x1021 & ((crc >> 15) & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// One byte into the CRC register: the reference step, and the tail of
/// a payload that is not a multiple of eight bytes.
fn crc16_step(crc: u16, byte: u8) -> u16 {
    (crc << 8) ^ CRC16_TABLES[0][(crc >> 8) as usize ^ byte as usize]
}

/// CRC-16/CCITT-FALSE over `data` (polynomial 0x1021, init 0xFFFF) —
/// the DDR4 Write-CRC uses the same CRC-family link protection.
/// Table-driven, eight bytes a step: the link computes it twice per
/// transfer.
///
/// # Examples
///
/// ```
/// // The CRC-16/CCITT-FALSE check value for "123456789".
/// assert_eq!(pmck_core::crc16(b"123456789"), 0x29B1);
/// ```
pub fn crc16(data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let (chunks, tail) = data.as_chunks::<8>();
    let crc = chunks.iter().fold(0xFFFF, |crc: u16, c| {
        t[7][(crc >> 8) as usize ^ c[0] as usize]
            ^ t[6][(crc & 0xFF) as usize ^ c[1] as usize]
            ^ t[5][c[2] as usize]
            ^ t[4][c[3] as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize]
    });
    tail.iter().fold(crc, |crc, &byte| crc16_step(crc, byte))
}

/// The bus fault process: independent bit flips at a given rate during
/// each transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusFault {
    /// Per-bit transmission error probability.
    pub ber: f64,
}

impl BusFault {
    /// A fault-free bus.
    pub fn none() -> Self {
        BusFault { ber: 0.0 }
    }
}

/// The outcome of a protected transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// Delivered intact on the first try.
    Clean,
    /// Delivered after `retries` CRC-triggered retransmissions.
    Retransmitted {
        /// How many resends were needed.
        retries: u32,
    },
    /// The retry budget was exhausted (the controller would escalate to
    /// a machine-check in real hardware).
    Failed,
}

/// A Write-CRC-protected link carrying 64 B write payloads (data or
/// bitwise sums) to the NVRAM chips.
#[derive(Debug, Clone)]
pub struct WriteLink {
    fault: BusFault,
    max_retries: u32,
    transfers: u64,
    retransmissions: u64,
}

impl WriteLink {
    /// A link with the given fault process and retry budget.
    pub fn new(fault: BusFault, max_retries: u32) -> Self {
        WriteLink {
            fault,
            max_retries,
            transfers: 0,
            retransmissions: 0,
        }
    }

    /// Total payloads sent.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total retransmissions performed.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Sends `payload` across the faulty bus; the receiver checks the
    /// CRC and requests retransmission on mismatch. On success,
    /// `deliver` receives exactly the bytes that were sent.
    pub fn send<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8; 64],
        rng: &mut R,
        deliver: impl FnOnce(&[u8; 64]),
    ) -> TransmitOutcome {
        self.transfers += 1;
        let crc = crc16(payload);
        let injector = BitErrorInjector::new(self.fault.ber);
        for attempt in 0..=self.max_retries {
            let mut wire = *payload;
            // Corrupt data and (conceptually) the CRC in flight; flipping
            // CRC bits alone also mismatches, which only adds retries, so
            // corrupting the payload suffices for the model.
            injector.corrupt(&mut wire, rng);
            if crc16(&wire) == crc {
                // CRC match: with 16 check bits the odds of accepting a
                // corrupted payload are ~2^-16 per erroneous transfer;
                // the model treats a match as intact delivery (and the
                // wire equals the payload in all but ~e-9 of cases at
                // realistic bus BER).
                deliver(&wire);
                return if attempt == 0 {
                    TransmitOutcome::Clean
                } else {
                    self.retransmissions += attempt as u64;
                    TransmitOutcome::Retransmitted { retries: attempt }
                };
            }
        }
        self.retransmissions += self.max_retries as u64;
        TransmitOutcome::Failed
    }
}

/// Write-CRC middleware: every write payload (conventional or bitwise
/// sum) crosses a [`WriteLink`] before reaching the inner device. A
/// transfer that exhausts its retry budget surfaces as
/// [`CoreError::LinkFailed`] without touching the stored bits.
#[derive(Debug, Clone)]
pub struct LinkProtected<D> {
    inner: D,
    link: WriteLink,
}

impl<D: BlockDevice> LinkProtected<D> {
    /// Wraps `inner` behind a Write-CRC link with the given fault
    /// process and retry budget.
    pub fn over(inner: D, fault: BusFault, max_retries: u32) -> Self {
        LinkProtected {
            inner,
            link: WriteLink::new(fault, max_retries),
        }
    }

    /// The link's transfer counters.
    pub fn link(&self) -> &WriteLink {
        &self.link
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    fn transmit(
        &mut self,
        addr: u64,
        data: [u8; 64],
        sum: bool,
        ctx: &mut AccessContext,
    ) -> Result<Response, CoreError> {
        let mut delivered = None;
        let outcome = self.link.send(&data, ctx.rng(), |w| delivered = Some(*w));
        let st = ctx.layer_mut(LayerId::Link);
        st.writes += 1;
        match outcome {
            TransmitOutcome::Clean => {}
            TransmitOutcome::Retransmitted { retries } => st.retransmissions += retries as u64,
            TransmitOutcome::Failed => {
                st.link_failures += 1;
                return Err(CoreError::LinkFailed);
            }
        }
        let data = delivered.expect("successful transfers deliver");
        let req = if sum {
            Request::WriteSum { addr, data }
        } else {
            Request::Write { addr, data }
        };
        self.inner.access(req, ctx)
    }
}

impl<D: BlockDevice> BlockDevice for LinkProtected<D> {
    fn id(&self) -> LayerId {
        LayerId::Link
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn detected_failed_chip(&self) -> Option<usize> {
        self.inner.detected_failed_chip()
    }

    fn core_stats(&self) -> Option<CoreStats> {
        self.inner.core_stats()
    }

    fn pmem_domain(&mut self) -> Option<&mut crate::pmem::PmemDomain> {
        self.inner.pmem_domain()
    }

    fn tier_report(&self) -> Option<crate::tier::TierReport> {
        self.inner.tier_report()
    }

    fn staging_matches_live(&self) -> Option<bool> {
        self.inner.staging_matches_live()
    }

    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        match req {
            Request::Write { addr, data } => self.transmit(addr, data, false, ctx),
            Request::WriteSum { addr, data } => self.transmit(addr, data, true, ctx),
            // Reads and maintenance traffic stay on-module.
            other => self.inner.access(other, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_rt::rng::StdRng;

    #[test]
    fn crc16_known_vectors() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
        // Any single-bit flip changes the CRC.
        let base = [0x42u8; 64];
        let c0 = crc16(&base);
        for i in 0..64 {
            for b in 0..8 {
                let mut m = base;
                m[i] ^= 1 << b;
                assert_ne!(crc16(&m), c0, "flip {i}.{b}");
            }
        }
    }

    #[test]
    fn sliced_crc16_equals_the_bytewise_fold() {
        // Every length from empty to three chunks and a tail, twice
        // over: the eight-byte step against one byte at a time.
        let mut rng = StdRng::seed_from_u64(24);
        for round in 0..4 {
            for len in 0..=200 {
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                let bytewise = data.iter().fold(0xFFFF, |crc, &b| crc16_step(crc, b));
                assert_eq!(crc16(&data), bytewise, "round {round}, {len} bytes");
            }
        }
    }

    #[test]
    fn clean_bus_delivers_first_try() {
        let mut link = WriteLink::new(BusFault::none(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        let payload = [0xA5u8; 64];
        let mut got = None;
        let out = link.send(&payload, &mut rng, |w| got = Some(*w));
        assert_eq!(out, TransmitOutcome::Clean);
        assert_eq!(got, Some(payload));
        assert_eq!(link.retransmissions(), 0);
    }

    #[test]
    fn faulty_bus_retransmits_and_delivers_intact() {
        // 1e-3 per bit over 512 bits → ~40% of transfers need a resend.
        let mut link = WriteLink::new(BusFault { ber: 1e-3 }, 16);
        let mut rng = StdRng::seed_from_u64(2);
        let payload = [0x3Cu8; 64];
        let mut retransmitted = 0;
        for _ in 0..2000 {
            let mut got = None;
            match link.send(&payload, &mut rng, |w| got = Some(*w)) {
                TransmitOutcome::Clean => {}
                TransmitOutcome::Retransmitted { .. } => retransmitted += 1,
                TransmitOutcome::Failed => panic!("budget of 16 must suffice"),
            }
            assert_eq!(got, Some(payload), "delivery is always intact");
        }
        assert!(retransmitted > 400, "got {retransmitted}");
    }

    #[test]
    fn hopeless_bus_reports_failure() {
        let mut link = WriteLink::new(BusFault { ber: 0.2 }, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut failures = 0;
        for _ in 0..50 {
            if link.send(&[0u8; 64], &mut rng, |_| {}) == TransmitOutcome::Failed {
                failures += 1;
            }
        }
        assert!(failures > 25, "got {failures}");
    }

    #[test]
    fn end_to_end_sum_write_over_faulty_bus() {
        use crate::{ChipkillConfig, ChipkillMemory};
        let mut rng = StdRng::seed_from_u64(4);
        let mut mem = ChipkillMemory::new(32, ChipkillConfig::default());
        mem.write_block(5, &[0x11; 64]).unwrap();
        let mut link = WriteLink::new(BusFault { ber: 5e-4 }, 8);
        // new = 0x22…; sum = old ^ new.
        let sum = [0x11u8 ^ 0x22u8; 64];
        for _ in 0..50 {
            // Repeated idempotent sends of alternating sums.
            let mut delivered = None;
            let out = link.send(&sum, &mut rng, |w| delivered = Some(*w));
            assert_ne!(out, TransmitOutcome::Failed);
            mem.write_block_sum(5, &delivered.unwrap()).unwrap();
        }
        // 50 XORs of the same sum = identity ⊕ … (even count) → back to
        // the original value.
        assert_eq!(mem.read_block(5).unwrap().data, [0x11; 64]);
        assert!(mem.verify_consistent());
    }

    #[test]
    fn link_protected_layer_delivers_and_counts_retries() {
        use crate::{ChipkillConfig, ChipkillMemory};
        let mem = ChipkillMemory::new(32, ChipkillConfig::default());
        let mut dev = LinkProtected::over(mem, BusFault { ber: 1e-3 }, 16);
        let mut ctx = AccessContext::new(11);
        for i in 0..200u64 {
            let addr = i % 32;
            dev.access(
                Request::Write {
                    addr,
                    data: [i as u8; 64],
                },
                &mut ctx,
            )
            .unwrap();
        }
        for addr in 0..32u64 {
            // Last i < 200 with i % 32 == addr.
            let last = addr + 32 * ((199 - addr) / 32);
            let want = [last as u8; 64];
            match dev.access(Request::Read(addr), &mut ctx).unwrap() {
                Response::Read(out) => assert_eq!(out.data, want, "block {addr}"),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let st = ctx.layer(LayerId::Link).unwrap();
        assert_eq!(st.writes, 200);
        assert!(st.retransmissions > 0, "1e-3 BER must force resends");
        assert_eq!(st.retransmissions, dev.link().retransmissions());
        assert_eq!(st.link_failures, 0);
    }

    #[test]
    fn hopeless_link_fails_the_write_without_storing() {
        use crate::{ChipkillConfig, ChipkillMemory};
        let mut mem = ChipkillMemory::new(32, ChipkillConfig::default());
        mem.write_block(3, &[0x77; 64]).unwrap();
        let mut dev = LinkProtected::over(mem, BusFault { ber: 0.2 }, 1);
        let mut ctx = AccessContext::new(13);
        let mut failures = 0;
        for _ in 0..30 {
            if dev.access(
                Request::Write {
                    addr: 3,
                    data: [0xFF; 64],
                },
                &mut ctx,
            ) == Err(CoreError::LinkFailed)
            {
                failures += 1;
            }
        }
        assert!(failures > 0);
        assert_eq!(ctx.layer(LayerId::Link).unwrap().link_failures, failures);
    }
}
