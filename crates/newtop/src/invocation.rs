//! The invocation layer: marshalling between the application and the GC
//! object.
//!
//! In NewTOP the invocation service "allows the application to specify the
//! type of NewTOP service needed and marshals a multicast message" into a
//! generic CORBA `any`; at the destination it unmarshals the delivered value
//! and hands it to the client application (§3).  Here the generic container
//! is the canonical wire encoding of [`AppRequest`] / [`Upcall`].

use fs_common::codec::Wire;
use fs_common::error::{CodecError, Result};
use fs_common::{Bytes, Error, Frame};

use crate::message::{AppRequest, ServiceKind, Upcall};

/// The invocation service of one NewTOP service object.
///
/// Stateless apart from counters; one instance per application process.
#[derive(Debug, Clone, Default)]
pub struct InvocationService {
    marshalled: u64,
    unmarshalled: u64,
    malformed: u64,
}

impl InvocationService {
    /// Creates an invocation service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marshals an application payload into the request submitted to the GC
    /// object: the request header around the payload, which a large payload
    /// joins by refcount.
    pub fn marshal(&mut self, service: ServiceKind, payload: impl Into<Bytes>) -> Frame {
        self.marshalled += 1;
        marshal_request(service, payload)
    }

    /// Unmarshals a delivery received from the GC object.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] when the bytes are not a valid upcall (which
    /// can only happen if the middleware below is faulty).
    pub fn unmarshal(&mut self, frame: &Frame) -> Result<Upcall> {
        match unmarshal_upcall(frame) {
            Ok(upcall) => {
                self.unmarshalled += 1;
                Ok(upcall)
            }
            Err(e) => {
                self.malformed += 1;
                Err(Error::Codec(e))
            }
        }
    }

    /// Number of requests marshalled so far.
    pub fn marshalled(&self) -> u64 {
        self.marshalled
    }

    /// Number of upcalls unmarshalled so far.
    pub fn unmarshalled(&self) -> u64 {
        self.unmarshalled
    }

    /// Number of malformed deliveries rejected so far.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }
}

/// Convenience free function: marshal a request without tracking counters.
pub fn marshal_request(service: ServiceKind, payload: impl Into<Bytes>) -> Frame {
    AppRequest {
        service,
        payload: payload.into(),
    }
    .to_frame()
}

/// Convenience free function: unmarshal an upcall without tracking counters.
///
/// # Errors
///
/// Returns the underlying [`CodecError`] when the bytes are malformed.
pub fn unmarshal_upcall(frame: &Frame) -> std::result::Result<Upcall, CodecError> {
    Upcall::from_frame(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::AppDeliver;
    use fs_common::id::MemberId;

    #[test]
    fn marshal_unmarshal_round_trip() {
        let mut inv = InvocationService::new();
        let req_bytes = inv.marshal(ServiceKind::SymmetricTotal, b"order me".to_vec());
        let req = AppRequest::from_frame(&req_bytes).unwrap();
        assert_eq!(req.service, ServiceKind::SymmetricTotal);
        assert_eq!(req.payload, b"order me");

        let upcall = Upcall::Deliver(AppDeliver {
            origin: MemberId(1),
            seq: 0,
            order: 0,
            service: ServiceKind::SymmetricTotal,
            payload: b"order me"[..].into(),
        });
        let up = inv.unmarshal(&upcall.to_frame()).unwrap();
        assert_eq!(up, upcall);
        assert_eq!(inv.marshalled(), 1);
        assert_eq!(inv.unmarshalled(), 1);
        assert_eq!(inv.malformed(), 0);
    }

    #[test]
    fn malformed_upcall_is_counted_and_rejected() {
        let mut inv = InvocationService::new();
        assert!(inv.unmarshal(&vec![0xde, 0xad, 0xbe, 0xef].into()).is_err());
        assert_eq!(inv.malformed(), 1);
    }

    #[test]
    fn free_functions_agree_with_service() {
        let a = marshal_request(ServiceKind::Causal, vec![1, 2]);
        let mut inv = InvocationService::new();
        let b = inv.marshal(ServiceKind::Causal, vec![1, 2]);
        assert_eq!(a, b);
        assert!(unmarshal_upcall(&vec![1].into()).is_err());
    }
}
