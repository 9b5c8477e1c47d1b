//! The wire client: request ids, retries, NACK handling, and duplicate
//! suppression over any [`Channel`] — the one byte-queue trait, shared
//! with log shipping.  In-process servers implement it by pumping their
//! request queue inside `recv`; a TCP transport maps it onto socket
//! writes/reads.  `recv` returns raw deliveries, so damage detection stays
//! here and every channel gets it for free.
//!
//! The client never interprets a damaged frame: anything that fails
//! [`decode_frame`] is counted and dropped, and the request is re-sent
//! after a modeled backoff (the same `min(cap, base << (n-1))` schedule
//! the replication pump charges).  Because the server executes each
//! request id at most once and replays the cached response for
//! duplicates, a re-send is always safe — at-least-once delivery plus
//! server-side dedup gives exactly-once execution.

use std::fmt;

use asr_durable::{BackoffPolicy, Channel};

use crate::wire::{decode_frame, Request, RequestBody, Response, ResponseBody, WireMessage};

/// Why a call gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No intact response after 64 attempts — the link is effectively
    /// down (e.g. a blackout chaos profile).
    Exhausted {
        /// Attempts made (send + poll rounds).
        attempts: u32,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Exhausted { attempts } => {
                write!(f, "no intact response after {attempts} attempts")
            }
        }
    }
}

/// Delivery accounting for one client session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests issued (distinct ids).
    pub requests: u64,
    /// Frames sent, including re-sends.
    pub frames_sent: u64,
    /// Re-sends of an already-issued request.
    pub retries: u64,
    /// Deliveries that failed CRC/decode and were discarded.
    pub damaged_responses: u64,
    /// Intact responses for an older id (duplicates, late arrivals).
    pub stale_responses: u64,
    /// NACKs received (server saw a damaged frame).
    pub nacks: u64,
    /// Modeled backoff ticks charged across all retries.
    pub backoff_ticks: u64,
}

/// Attempts per request before [`ClientError::Exhausted`].
const MAX_ATTEMPTS: u32 = 64;

/// One client session speaking the wire protocol over a [`Channel`].
pub struct WireClient<T: Channel> {
    transport: T,
    next_id: u64,
    backoff: BackoffPolicy,
    stats: ClientStats,
}

impl<T: Channel> WireClient<T> {
    /// A session over `transport` with a 64-attempt retry budget.
    pub fn new(transport: T) -> Self {
        WireClient {
            transport,
            next_id: 1,
            backoff: BackoffPolicy::default(),
            stats: ClientStats::default(),
        }
    }

    /// Session accounting so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The transport, e.g. to reach the chaos channel underneath.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Issue `body`, retrying through damage until an intact response for
    /// this request arrives or the attempt budget is exhausted.
    pub fn call(&mut self, body: RequestBody) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.requests += 1;
        let frame = Request { id, body }.encode();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            self.transport.send(frame.clone());
            self.stats.frames_sent += 1;
            if attempts > 1 {
                self.stats.retries += 1;
            }
            // Drain everything the transport has; the response for `id`
            // may be preceded by stale duplicates or damaged deliveries.
            while let Some(delivery) = self.transport.recv() {
                match decode_frame(&delivery) {
                    Some(WireMessage::Response(resp)) if resp.id == id => {
                        if let ResponseBody::Nack { .. } = resp.body {
                            self.stats.nacks += 1;
                            break; // re-send the same frame
                        }
                        return Ok(resp);
                    }
                    Some(WireMessage::Response(resp)) if resp.id == 0 => {
                        // NACK for a frame whose id was unreadable: the
                        // server wants a re-send.
                        self.stats.nacks += 1;
                        break;
                    }
                    Some(WireMessage::Response(_)) => {
                        self.stats.stale_responses += 1;
                    }
                    Some(WireMessage::Request(_)) | None => {
                        self.stats.damaged_responses += 1;
                    }
                }
            }
            if attempts >= MAX_ATTEMPTS {
                return Err(ClientError::Exhausted { attempts });
            }
            self.stats.backoff_ticks += self.backoff.delay_for(attempts);
        }
    }
}

#[cfg(test)]
mod tests {
    use asr_pagesim::IoSnapshot;

    use super::*;

    /// A scripted channel: the "server" side is a queue of canned
    /// deliveries released one per receive after each send.
    struct Scripted {
        sent: Vec<Vec<u8>>,
        replies: std::collections::VecDeque<Vec<u8>>,
    }

    impl Channel for Scripted {
        fn send(&mut self, frame: Vec<u8>) {
            self.sent.push(frame);
        }
        fn recv(&mut self) -> Option<Vec<u8>> {
            self.replies.pop_front()
        }
    }

    fn ok_response(id: u64) -> Vec<u8> {
        Response {
            id,
            body: ResponseBody::Ok,
            io: IoSnapshot::default(),
        }
        .encode()
    }

    #[test]
    fn call_skips_stale_and_damaged_then_succeeds() {
        let mut damaged = ok_response(3);
        let n = damaged.len();
        damaged[n - 1] ^= 0x40;
        let transport = Scripted {
            sent: Vec::new(),
            replies: [ok_response(0xDEAD), damaged, ok_response(1)].into(),
        };
        let mut client = WireClient::new(transport);
        let resp = client.call(RequestBody::Ping).expect("response");
        assert_eq!(resp.id, 1);
        assert_eq!(client.stats().stale_responses, 1);
        assert_eq!(client.stats().damaged_responses, 1);
    }

    #[test]
    fn nack_triggers_resend() {
        let nack = Response {
            id: 0,
            body: ResponseBody::Nack { last_executed: 0 },
            io: IoSnapshot::default(),
        }
        .encode();
        let transport = Scripted {
            sent: Vec::new(),
            replies: [nack, ok_response(1)].into(),
        };
        let mut client = WireClient::new(transport);
        let resp = client.call(RequestBody::Ping).expect("response");
        assert_eq!(resp.body, ResponseBody::Ok);
        let stats = client.stats();
        assert_eq!(stats.nacks, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.frames_sent, 2);
        assert!(stats.backoff_ticks >= 1);
    }

    #[test]
    fn silence_exhausts() {
        let transport = Scripted {
            sent: Vec::new(),
            replies: [].into(),
        };
        let mut client = WireClient::new(transport);
        let err = client.call(RequestBody::Ping).unwrap_err();
        assert_eq!(
            err,
            ClientError::Exhausted {
                attempts: MAX_ATTEMPTS
            }
        );
        assert_eq!(client.stats().frames_sent, u64::from(MAX_ATTEMPTS));
    }
}
