//! The workload axis of the scenario matrix: a [`Workload`] describes *how
//! much* traffic each member generates and at what cadence, independently
//! of which service orders it and which runtime carries it.  The type and
//! its companions are the load plane's own (`fs_simnet::load`), re-exported
//! here.

pub use fs_simnet::load::{Admission, Arrival, LoadStats, Workload};

#[cfg(test)]
mod tests {
    use super::*;
    use fs_common::id::MemberId;
    use fs_common::time::SimDuration;

    #[test]
    fn builders_compose() {
        let w = Workload::quick(5)
            .payload_size(128)
            .interval(SimDuration::from_millis(7))
            .start_delay(SimDuration::from_millis(1));
        assert_eq!(w.messages, 5);
        assert_eq!(w.payload_size, 128);
        assert_eq!(w.interval, SimDuration::from_millis(7));
        assert_eq!(w.start_delay, SimDuration::from_millis(1));
        assert_eq!(Workload::default(), Workload::paper_default());
    }

    #[test]
    fn load_plane_builders_compose() {
        let w = Workload::quick(5)
            .poisson()
            .arrival_seed(9)
            .senders(1)
            .clients(4)
            .max_in_flight(2)
            .admission(Admission::Block)
            .batch_max(8)
            .batch_linger(SimDuration::from_micros(500));
        assert_eq!(w.arrival, Arrival::Poisson);
        assert_eq!(w.arrival_seed, 9);
        assert_eq!(w.senders, 1);
        assert_eq!(w.clients, 4);
        assert_eq!(w.max_in_flight, 2);
        assert_eq!(w.admission, Admission::Block);
        assert_eq!(w.batch_max, 8);
        assert_eq!(w.batch_linger, SimDuration::from_micros(500));
        // batch_max 0 is clamped to "off", not "never close".
        assert_eq!(Workload::quick(1).batch_max(0).batch_max, 1);
    }

    #[test]
    fn for_member_silences_non_senders() {
        let w = Workload::quick(5).senders(1);
        assert_eq!(w.for_member(MemberId(0)).messages, 5);
        assert_eq!(w.for_member(MemberId(1)).messages, 0);
        assert_eq!(w.for_member(MemberId(2)).messages, 0);
        // senders = 0 means everyone sends.
        let all = Workload::quick(5);
        assert_eq!(all.for_member(MemberId(2)).messages, 5);
    }
}
