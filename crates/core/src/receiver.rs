//! Validity checking and duplicate suppression at FS-process destinations.
//!
//! "An output from FS p is valid only if it bears the authentic signatures of
//! both Compare and Compare'" (§2.1), and when both nodes are correct *two*
//! valid copies arrive — byte-identical: both wrappers write the pair's two
//! signature shares in the same order.  [`FsReceiver`] is the piece a
//! destination embeds to enforce that: it verifies the two shares over the
//! output's statement, suppresses the duplicate copy, and converts the first
//! valid fail-signal from each source into a notification — the raw material
//! the FS-NewTOP suspector turns into (never false) suspicions.
//!
//! An output is verified once: a frame claiming an already accepted
//! `(fs, dest, output_seq)` is dropped unverified (`Accepted` has the rule);
//! fresh ones are returned as they arrive, in any order.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used
)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use fs_common::codec::Wire;
use fs_common::id::FsId;
use fs_common::{Bytes, Frame};
use fs_crypto::keys::{KeyDirectory, SignerId};

use crate::accepted::Accepted;
use crate::message::{FsContent, FsOutput, FsoInbound};

/// What a destination learns from one accepted message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsDelivery {
    /// A fresh, valid output of the given FS process.
    Output {
        /// The emitting FS process.
        fs: FsId,
        /// The output's number in its (pair, destination) stream.
        output_seq: u64,
        /// The output bytes (signatures already stripped): the sub-frame of
        /// the delivered envelope that carries them, sharing its segments.
        bytes: Frame,
    },
    /// The first valid fail-signal received from the given FS process.
    FailSignal {
        /// The failed FS process.
        fs: FsId,
    },
}

/// Per-destination statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Valid, fresh outputs accepted.
    pub accepted: u64,
    /// Copies of an already accepted output (or fail-signal) dropped,
    /// unverified.
    pub duplicates: u64,
    /// Messages rejected: unknown source, bad signatures, malformed bytes.
    pub rejected: u64,
    /// Fail-signals accepted (first occurrence per source).
    pub fail_signals: u64,
}

/// Verifies, deduplicates and strips FS-process outputs at a destination.
#[derive(Debug, Clone)]
pub struct FsReceiver {
    directory: Arc<KeyDirectory>,
    /// The wrapper signer pair of every FS process this destination accepts
    /// messages from.
    known_pairs: BTreeMap<FsId, (SignerId, SignerId)>,
    /// What has been accepted so far.
    pub(crate) accepted: Accepted,
    stats: ReceiverStats,
}

impl FsReceiver {
    /// Creates a receiver trusting the given key directory.
    pub fn new(directory: Arc<KeyDirectory>) -> Self {
        Self {
            directory,
            known_pairs: BTreeMap::new(),
            accepted: Accepted::default(),
            stats: ReceiverStats::default(),
        }
    }

    /// Registers the wrapper signer pair of a source FS process.
    pub fn register_source(&mut self, fs: FsId, signers: (SignerId, SignerId)) {
        self.known_pairs.insert(fs, signers);
    }

    /// The sources whose fail-signal has been received.
    pub fn failed_sources(&self) -> &BTreeSet<FsId> {
        self.accepted.failed()
    }

    /// The receiver's counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// [`FsReceiver::accept_frame`] for a message held as one contiguous
    /// buffer.
    pub fn accept(&mut self, payload: &Bytes) -> Option<FsDelivery> {
        self.accept_frame(&payload.clone().into())
    }

    /// Processes one raw message addressed to this destination.  Returns the
    /// delivery it produces, if any.
    ///
    /// The payload is the frame exactly as delivered by the transport; the
    /// decoded output bytes handed back in [`FsDelivery::Output`] are the
    /// sub-frame that carries them, sharing the payload's segments — a
    /// payload the sender's machine spliced in is the sender's own buffer.
    pub fn accept_frame(&mut self, payload: &Frame) -> Option<FsDelivery> {
        let output = match FsoInbound::from_frame(payload) {
            Ok(FsoInbound::External(output)) => output,
            Ok(_) | Err(_) => {
                // Destinations outside the pair only ever accept external
                // (double-signed) traffic.
                self.stats.rejected = self.stats.rejected.saturating_add(1);
                return None;
            }
        };
        self.accept_output(output)
    }

    /// Processes an already-decoded FS output.
    pub fn accept_output(&mut self, output: FsOutput) -> Option<FsDelivery> {
        let Some(&signers) = self.known_pairs.get(&output.fs) else {
            self.stats.rejected = self.stats.rejected.saturating_add(1);
            return None;
        };
        if self.accepted.contains(output.fs, &output.content) {
            self.stats.duplicates = self.stats.duplicates.saturating_add(1);
            return None;
        }
        if output.verify(&self.directory, signers).is_err() {
            self.stats.rejected = self.stats.rejected.saturating_add(1);
            return None;
        }
        self.accepted.insert(output.fs, &output.content);
        match output.content {
            FsContent::FailSignal => {
                self.stats.fail_signals = self.stats.fail_signals.saturating_add(1);
                Some(FsDelivery::FailSignal { fs: output.fs })
            }
            FsContent::Output {
                output_seq, bytes, ..
            } => {
                self.stats.accepted = self.stats.accepted.saturating_add(1);
                Some(FsDelivery::Output {
                    fs: output.fs,
                    output_seq,
                    bytes,
                })
            }
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "tests index, count and unwrap what they built themselves"
)]
mod tests {
    use super::*;
    use fs_common::id::ProcessId;
    use fs_common::rng::DetRng;
    use fs_crypto::keys::{provision, SigningKey};
    use fs_smr::machine::Endpoint;

    fn setup() -> (SigningKey, SigningKey, SigningKey, Arc<KeyDirectory>) {
        let mut rng = DetRng::new(5);
        let (mut keys, dir) = provision([ProcessId(1), ProcessId(2), ProcessId(3)], &mut rng);
        (
            keys.remove(&SignerId(ProcessId(1))).unwrap(),
            keys.remove(&SignerId(ProcessId(2))).unwrap(),
            keys.remove(&SignerId(ProcessId(3))).unwrap(),
            dir,
        )
    }

    fn output(fs: u32, seq: u64, a: &SigningKey, b: &SigningKey) -> FsOutput {
        FsOutput::sign(
            FsId(fs),
            FsContent::Output {
                output_seq: seq,
                dest: Endpoint::LocalApp,
                bytes: Frame::from(vec![seq as u8]),
            },
            a,
            b,
        )
    }

    #[test]
    fn accepts_valid_output_once() {
        let (a, b, _, dir) = setup();
        let mut r = FsReceiver::new(dir);
        r.register_source(FsId(1), (a.signer, b.signer));
        let o = output(1, 0, &a, &b);
        let first = r.accept(&FsoInbound::External(o.clone()).to_wire());
        assert_eq!(
            first,
            Some(FsDelivery::Output {
                fs: FsId(1),
                output_seq: 0,
                bytes: Frame::from(vec![0])
            })
        );
        // The second copy — here with its shares in the other order — is
        // suppressed.
        let second_copy = output(1, 0, &b, &a);
        assert_eq!(r.accept_output(second_copy), None);
        assert_eq!(r.stats().accepted, 1);
        assert_eq!(r.stats().duplicates, 1);
    }

    #[test]
    fn accepted_output_bytes_are_views_of_the_delivered_frame() {
        let (a, b, _, dir) = setup();
        let mut r = FsReceiver::new(dir);
        r.register_source(FsId(1), (a.signer, b.signer));
        let o = output(1, 0, &a, &b);
        let frame = FsoInbound::External(o).to_wire();
        let refs_before = frame.ref_count();
        let Some(FsDelivery::Output { bytes, .. }) = r.accept(&frame) else {
            panic!("valid output must be accepted");
        };
        // Zero payload copies on the receive path: the delivered bytes share
        // the frame's storage — refcount bumps only (the delivered view,
        // plus the verification memos pinning the content), no new allocation.
        assert!(bytes.is_contiguous() && bytes.to_bytes().shares_storage(&frame));
        assert!(frame.ref_count() > refs_before);
    }

    #[test]
    fn spliced_frames_deliver_the_senders_own_buffer() {
        let (a, b, _, dir) = setup();
        let mut r = FsReceiver::new(dir);
        r.register_source(FsId(1), (a.signer, b.signer));
        let payload: Bytes = vec![7u8; 10 * 1024].into();
        let o = FsOutput::sign(
            FsId(1),
            FsContent::Output {
                output_seq: 0,
                dest: Endpoint::LocalApp,
                bytes: payload.clone(),
            },
            &a,
            &b,
        );
        let frame = FsoInbound::External(o).to_frame();
        assert!(!frame.is_contiguous());
        let Some(FsDelivery::Output { bytes, .. }) = r.accept_frame(&frame) else {
            panic!("valid output must be accepted");
        };
        assert!(bytes.is_contiguous() && bytes.to_bytes().same_view(&payload));
        // The contiguous form of the same frame is the same message: a
        // duplicate.
        assert_eq!(r.accept(&frame.to_bytes()), None);
        assert_eq!(r.stats().duplicates, 1);
    }

    #[test]
    fn reordered_outputs_of_two_sources_are_each_accepted_once() {
        let (a, b, c, dir) = setup();
        let mut r = FsReceiver::new(dir);
        r.register_source(FsId(1), (a.signer, b.signer));
        r.register_source(FsId(2), (b.signer, c.signer));
        for (i, seq) in [2u64, 0, 1, 5, 3, 0, 5].into_iter().enumerate() {
            let fresh = i < 5;
            assert_eq!(r.accept_output(output(1, seq, &a, &b)).is_some(), fresh);
            assert_eq!(r.accept_output(output(2, seq, &b, &c)).is_some(), fresh);
        }
        assert_eq!(r.stats().accepted, 10);
        assert_eq!(r.stats().duplicates, 4);
    }

    #[test]
    fn rejects_unknown_source_and_bad_signature() {
        let (a, b, c, dir) = setup();
        let mut r = FsReceiver::new(dir);
        r.register_source(FsId(1), (a.signer, b.signer));
        // Unknown source FS.
        assert_eq!(r.accept_output(output(9, 0, &a, &b)), None);
        // Forged: outsider c signs instead of b.
        assert_eq!(r.accept_output(output(1, 1, &a, &c)), None);
        assert_eq!(r.stats().rejected, 2);
    }

    #[test]
    fn fail_signal_reported_once() {
        let (a, b, _, dir) = setup();
        let mut r = FsReceiver::new(dir);
        r.register_source(FsId(1), (a.signer, b.signer));
        let signal = FsOutput::sign(FsId(1), FsContent::<Frame>::FailSignal, &b, &a);
        assert_eq!(
            r.accept_output(signal.clone()),
            Some(FsDelivery::FailSignal { fs: FsId(1) })
        );
        // A failed pair repeats its fail-signal in answer to everything;
        // once the source is recorded as failed nothing is verified again —
        // not even a "fail-signal" nobody signed.
        assert_eq!(r.accept_output(signal.clone()), None);
        let unsigned = FsOutput {
            second: signal.first.clone(),
            ..signal
        };
        assert_eq!(r.accept_output(unsigned), None);
        assert!(r.failed_sources().contains(&FsId(1)));
        assert_eq!(r.stats().fail_signals, 1);
        assert_eq!(r.stats().duplicates, 2);
        assert_eq!(r.stats().rejected, 0);
    }

    /// What the second copy of an output costs a destination: nothing is
    /// hashed, so nothing was verified (a 1-byte body is below the digest
    /// memo's floor: verifying it would hash it afresh).
    #[test]
    fn second_copy_of_an_accepted_output_is_dropped_unverified() {
        let (a, b, _, dir) = setup();
        let mut r = FsReceiver::new(dir);
        r.register_source(FsId(1), (a.signer, b.signer));
        assert!(r.accept_output(output(1, 0, &a, &b)).is_some());
        let hashed = fs_crypto::sha256::blocks_compressed();
        let copy = output(1, 0, &a, &b);
        let forged = FsOutput {
            content: FsContent::Output {
                output_seq: 0,
                dest: Endpoint::LocalApp,
                bytes: Frame::from(b"evil".to_vec()),
            },
            ..output(1, 0, &a, &b)
        };
        let signing = fs_crypto::sha256::blocks_compressed() - hashed;
        assert_eq!(r.accept_output(copy), None);
        // A forgery re-using the accepted number has nothing to suppress.
        assert_eq!(r.accept_output(forged), None);
        assert_eq!(
            fs_crypto::sha256::blocks_compressed() - hashed,
            signing,
            "neither copy was hashed or checked"
        );
        assert_eq!(r.stats().accepted, 1);
        assert_eq!(r.stats().duplicates, 2);
        assert_eq!(r.stats().rejected, 0);
    }

    #[test]
    fn forged_fresh_sequence_number_cannot_suppress_the_genuine_output() {
        let (a, b, c, dir) = setup();
        let mut r = FsReceiver::new(dir);
        r.register_source(FsId(1), (a.signer, b.signer));
        // Claims a number nothing was accepted under: verified, rejected,
        // and the window is left as it was.
        assert_eq!(r.accept_output(output(1, 0, &a, &c)), None);
        assert_eq!(r.stats().rejected, 1);
        assert!(r.accept_output(output(1, 0, &a, &b)).is_some());
        assert_eq!(r.stats().accepted, 1);
        assert_eq!(r.stats().duplicates, 0);
    }

    #[test]
    fn malformed_and_internal_messages_are_rejected() {
        let (_, _, _, dir) = setup();
        let mut r = FsReceiver::new(dir);
        assert_eq!(r.accept(&Bytes::from(&[0xff, 0x00][..])), None);
        let internal = FsoInbound::Raw(b"raw".to_vec().into()).to_wire();
        assert_eq!(r.accept(&internal), None);
        assert_eq!(r.stats().rejected, 2);
    }
}
