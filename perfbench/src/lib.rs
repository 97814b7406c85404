//! Campaign-level benchmark of the dual-graph broadcast reproduction.
//!
//! Each workload is a real [`CampaignSpec`](dradio_campaign::CampaignSpec)
//! run through the public `CampaignRunner::run` on a fresh file store. The
//! untraced run ([`bench::end_to_end`]) reports what a user of the campaign
//! engine sees; the traced run ([`bench::traced`]) replays the same cells'
//! trials with every process and link process wrapped in a round-phase
//! tracer ([`trace`]) and times the other layers from outside, through their
//! public functions. Every run checks its outputs: store bytes against a
//! reference digest, traced measurements against the store, and sampled
//! trials against full-history verification.

pub mod bench;
pub mod harness;
pub mod references;
pub mod trace;
pub mod workloads;
