#include "sim/dynamic.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace optdm::sim {

namespace {

/// Asks the kernel to back a large arena with huge pages (2 MiB on
/// x86-64).  At the 1e6-message scale the path-hop arena alone spans
/// hundreds of megabytes and the ~1e3 concurrently active paths scatter
/// across more 4 KiB pages than the TLB holds, so page-walk stalls creep
/// into every protocol step.  Must run after the allocation but before
/// the pages are first touched (the hint applies at fault time).
/// Advisory only: on failure or off-Linux nothing changes but timing.
void advise_hugepages(void* data, std::size_t bytes) {
#if defined(__linux__)
  constexpr std::size_t kMinBytes = 32u << 20;
  if (data == nullptr || bytes < kMinBytes) return;
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  auto begin = reinterpret_cast<std::uintptr_t>(data);
  auto end = begin + bytes;
  begin = (begin + page - 1) & ~(page - 1);
  end &= ~(page - 1);
  if (end > begin)
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

/// Channel mask over the K slots of one link.
using ChannelMask = std::uint64_t;

enum class EventKind : std::uint8_t {
  kIssue,        ///< source begins (or retries) the head-of-queue message
  kReserveStep,  ///< reservation packet reserves path link `hop`
  kDstSelect,    ///< destination picks the channel
  kAckStep,      ///< ack releases non-selected channels at path link `hop`
  kNackStep,     ///< nack releases reservations at path link `hop`
  kDataDone,     ///< last payload delivered
  kReleaseStep,  ///< release frees the selected channel at path link `hop`
  kTimeout,      ///< source's reservation timer fires (fault runs only)
  kCleanup,      ///< switch hold timers reclaim stranded reservations
};

/// Tags distinguishing control-packet kinds in the deterministic
/// drop-decision hash.
enum CtrlTag : std::uint8_t {
  kTagReserve = 1,
  kTagAck = 2,
  kTagNack = 3,
  kTagRelease = 4,
};

/// One scheduled protocol step.  Neither the slot nor a sequence number
/// is stored: `SlotQueue` keys payloads by slot externally and replays a
/// slot's payloads in push order, which *is* the FIFO tie-break the old
/// `(time, seq)`-keyed event carried — 16 bytes instead of 32 through
/// the queue on every one of the run's ~1e3 events per message.
///
/// `first_hop` duplicates the message's arena offset so the run loop can
/// prefetch the event's hop-arena entry without first loading the
/// message record (the two random loads would otherwise chain).
struct Event {
  std::int32_t subject = 0;  // node for kIssue, message id otherwise
  std::int32_t attempt = 0;  // reservation attempt the event belongs to
  std::uint32_t first_hop = 0;  // subject's path offset in the hop arena
  std::int16_t hop = 0;      // path hop index (paths are <= 130 links)
  EventKind kind = EventKind::kIssue;
};
static_assert(sizeof(Event) <= 16, "hot event payload grew");

/// Per-message protocol state.  Terminal states are kDone and kFailed.
enum class MsgState : std::uint8_t {
  kQueued,
  kReserving,
  kTransmitting,
  kDone,
  kFailed,
};

/// Per-message protocol state, structure-of-arrays style: the per-hop
/// path state lives in a shared arena (`Simulator::hops_`, indexed by
/// `first_hop`), the externally visible timings live in the result's
/// stats vector, and the cold per-message inputs (payload size) live in
/// `Simulator::msg_slots_` — this struct is only the hot protocol core
/// the event handlers touch, packed to 32 bytes so two messages share a
/// cache line at the 1e6-message scale.
struct RuntimeMessage {
  /// Offset of this message's path in the link/reservation arenas.
  std::uint32_t first_hop = 0;
  /// Path length in links: [injection, network..., ejection].
  std::uint32_t hop_count = 0;
  /// Mask carried by the in-flight reservation packet.
  ChannelMask mask = 0;
  /// Current reservation attempt; events of earlier attempts are stale.
  std::int32_t attempt = 0;
  /// Source node (owner of the head-of-line queue this message sits in).
  topo::NodeId src = 0;
  /// Selected channel (slot index, < kMaxMultiplexingDegree) once
  /// established.
  std::int16_t channel = -1;
  MsgState state = MsgState::kQueued;
};
static_assert(sizeof(RuntimeMessage) <= 32,
              "hot per-message record grew past half a cache line");

/// One path hop in the shared arena: the link it crosses and the
/// channels tentatively reserved on it (zero outside an in-flight
/// reservation).  Interleaved on purpose — every handler that reads a
/// hop's link also reads or writes its reservation word, so pairing them
/// costs one cache line per protocol step where the parallel-array
/// layout cost two (which is what dominates once 1e6 in-flight paths
/// blow past the L2).
struct PathHop {
  topo::LinkId link = 0;
  ChannelMask reserved = 0;
};

class Simulator {
 public:
  Simulator(const topo::Network& net, std::span<const Message> messages,
            const DynamicParams& params, const FaultTimeline& faults,
            obs::Trace* trace)
      : net_(net), params_(params), faults_(&faults), trace_(trace),
        rng_(params.seed) {
    if (params.multiplexing_degree < 1 || params.multiplexing_degree > 64)
      throw std::invalid_argument(
          "simulate_dynamic: multiplexing degree must be in [1, 64]");
    if (params.backoff_slots < 1)
      throw std::invalid_argument(
          "simulate_dynamic: backoff_slots must be positive");
    if (params.horizon < 1)
      throw std::invalid_argument("simulate_dynamic: horizon must be positive");
    if (params.ctrl_hop_slots < 1)
      throw std::invalid_argument(
          "simulate_dynamic: ctrl_hop_slots must be positive");
    if (params.ctrl_local_slots < 1)
      throw std::invalid_argument(
          "simulate_dynamic: ctrl_local_slots must be positive");
    if (params.timeout_slots < 0)
      throw std::invalid_argument("simulate_dynamic: negative timeout_slots");
    if (params.retry_budget < 0)
      throw std::invalid_argument("simulate_dynamic: negative retry_budget");
    if (params.max_backoff_slots < 0)
      throw std::invalid_argument(
          "simulate_dynamic: negative max_backoff_slots");
    if (params.livelock_retries_per_message < 0)
      throw std::invalid_argument(
          "simulate_dynamic: negative livelock_retries_per_message");
    if (params.reconfig_slots < 0)
      throw std::invalid_argument(
          "simulate_dynamic: negative reconfig_slots");
    if (params.livelock_retries_per_message > 0)
      livelock_threshold_ = params.livelock_retries_per_message *
                            static_cast<std::int64_t>(messages.size());
    has_faults_ = faults.active();
    has_link_faults_ = faults.has_link_faults();
    reserve_one_ = params.policy == DynamicParams::Policy::kReserveOne;
    if (trace_) {
      node_tracks_.assign(static_cast<std::size_t>(net.node_count()), -1);
      attempt_starts_.assign(messages.size(), -1);
    }
    full_mask_ = params.multiplexing_degree == 64
                     ? ~ChannelMask{0}
                     : (ChannelMask{1} << params.multiplexing_degree) - 1;
    // Slot-occupancy words, sized from the topology's capability query:
    // with K <= kMaxMultiplexingDegree one 64-bit word holds a link's
    // whole frame, so `occupancy_words` is exactly one mask per link.
    const auto ext = net.extents();
    free_.assign(net.occupancy_words(params.multiplexing_degree), full_mask_);
    // The shadow-hop test "is this a network link" sits on the per-hop
    // control path; read the network's SoA kind table directly instead of
    // rebuilding a per-run byte array from the AoS records.
    link_kinds_ = net.link_kind();

    const auto node_count = static_cast<std::size_t>(ext.nodes);
    const auto count = messages.size();
    msgs_.reserve(count);
    advise_hugepages(msgs_.data(), count * sizeof(RuntimeMessage));
    msgs_.resize(count);
    msg_slots_.resize(count);
    stats_.reserve(count);
    advise_hugepages(stats_.data(), count * sizeof(DynamicMessageStats));
    stats_.assign(count, DynamicMessageStats{});

    // Pass 1 — validate in input order (same errors, same order, as the
    // old per-message make_path) and size everything up front: per-source
    // counts for the queue layout, total hops for the path arena.
    std::vector<std::int32_t> per_node(node_count, 0);
    std::int64_t total_hops = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto& m = messages[i];
      if (m.slots < 1)
        throw std::invalid_argument("simulate_dynamic: message size < 1");
      if (m.request.src == m.request.dst)
        throw std::invalid_argument("Path: self-request (" +
                                    std::to_string(m.request.src) + " -> " +
                                    std::to_string(m.request.dst) + ")");
      if (m.request.src < 0 || m.request.src >= ext.nodes ||
          m.request.dst < 0 || m.request.dst >= ext.nodes)
        throw std::invalid_argument("Path: request endpoint outside network");
      msgs_[i].src = m.request.src;
      msg_slots_[i] = m.slots;
      total_hops += net.route_hops(m.request.src, m.request.dst) + 2;
      ++per_node[static_cast<std::size_t>(m.request.src)];
    }

    // Flat per-source queues (counting sort by source, input order kept):
    // `queue_ids_[queue_head_[n] .. queue_end_[n])` is node n's backlog;
    // the head index advances in place of the old deque's pop_front.
    queue_ids_.resize(count);
    queue_head_.resize(node_count);
    queue_end_.resize(node_count);
    std::int32_t at = 0;
    for (std::size_t n = 0; n < node_count; ++n) {
      queue_head_[n] = at;
      at += per_node[n];
      queue_end_[n] = at;
      per_node[n] = queue_head_[n];  // reuse as the fill cursor
    }
    for (std::size_t i = 0; i < count; ++i) {
      const auto src = static_cast<std::size_t>(messages[i].request.src);
      queue_ids_[static_cast<std::size_t>(per_node[src]++)] =
          static_cast<std::int32_t>(i);
    }

    // Pass 2 — route every path into the shared hop arena via
    // `route_links_into` (no per-message `core::Path` or route vector:
    // the contiguity invariants make_path re-verifies per call hold by
    // construction for every in-tree router).  Paths are laid out in
    // queue order, so a source's backlog occupies contiguous arena
    // storage — the order the run actually visits it.
    topo::assert_id_fits(total_hops, "dynamic-sim path arena");
    hops_.reserve(static_cast<std::size_t>(total_hops));
    advise_hugepages(hops_.data(),
                     static_cast<std::size_t>(total_hops) * sizeof(PathHop));
    std::vector<topo::LinkId> route;  // routing scratch, reused per message
    for (const auto id : queue_ids_) {
      const auto& m = messages[static_cast<std::size_t>(id)];
      auto& rt = msgs_[static_cast<std::size_t>(id)];
      rt.first_hop = static_cast<std::uint32_t>(hops_.size());
      route.clear();
      route.push_back(net.injection_link(m.request.src));
      net.route_links_into(m.request.src, m.request.dst, route);
      route.push_back(net.ejection_link(m.request.dst));
      for (const auto link : route) hops_.push_back(PathHop{link, 0});
      rt.hop_count = static_cast<std::uint32_t>(hops_.size()) - rt.first_hop;
    }
  }

  DynamicResult run() {
    for (topo::NodeId n = 0; n < net_.node_count(); ++n)
      if (queue_head_[static_cast<std::size_t>(n)] <
          queue_end_[static_cast<std::size_t>(n)])
        push(0, EventKind::kIssue, n, 0, 0);

    remaining_ = msgs_.size();
    DynamicResult result;
    Event ev;
    std::int64_t time = 0;
    while (remaining_ > 0 && events_.poll(time, ev)) {
      if (time > params_.horizon) {
        result.completed = false;
        break;
      }
      now_ = time;
      // The next event's message record and hop-arena entry are dependent
      // random loads the core can't predict; start both while this event
      // is handled.  `first_hop` rides in the event precisely so the hop
      // prefetch needs no load of the message record first.
      // (kIssue subjects are node ids, not message ids — skip those.)
      if (const Event* next = events_.peek_same_slot();
          next != nullptr && next->kind != EventKind::kIssue) {
        __builtin_prefetch(&msgs_[static_cast<std::size_t>(next->subject)]);
        __builtin_prefetch(hops_.data() + next->first_hop +
                           static_cast<std::uint32_t>(next->hop));
      }
      dispatch(ev);
    }
    if (remaining_ > 0) result.completed = false;

    // Drain the releases, hold-timer cleanups, and any stale control
    // traffic still in flight, then check the conservation invariant:
    // every channel free again.  Every handler is guarded by message
    // state and attempt tags, so replaying the queue is side-effect-free
    // except for the releases themselves.
    if (result.completed) {
      while (events_.poll(time, ev)) {
        now_ = time;
        dispatch(ev);
      }
      result.clean_shutdown = true;
      for (const auto mask : free_)
        if (mask != full_mask_) result.clean_shutdown = false;
      for (const auto& hop : hops_)
        if (hop.reserved != 0) result.clean_shutdown = false;
    }

    result.messages.reserve(msgs_.size());
    for (std::size_t i = 0; i < msgs_.size(); ++i) {
      const auto& rt = msgs_[i];
      auto& stats = stats_[i];
      if (rt.state != MsgState::kDone && rt.state != MsgState::kFailed)
        stats.outcome = MessageOutcome::kFailed;  // horizon cut it off
      result.messages.push_back(stats);
      result.total_retries += stats.retries;
      result.total_slots = std::max(result.total_slots, stats.completed);
      result.faults.timeouts += stats.timeouts;
      result.faults.payloads_lost += stats.payloads_lost;
      switch (stats.outcome) {
        case MessageOutcome::kDelivered:
          break;
        case MessageOutcome::kLost:
          ++result.faults.messages_lost;
          break;
        case MessageOutcome::kMisrouted:
          ++result.faults.messages_misrouted;
          break;
        case MessageOutcome::kFailed:
          ++result.faults.messages_failed;
          break;
      }
    }
    result.faults.ctrl_dropped = ctrl_dropped_;
    result.livelock = livelock_flagged_;

    // Fault down-windows, one track per faulted link; a permanent kill is
    // clamped to the end of the run for display.
    if (trace_ && has_link_faults_) {
      for (const auto& fault : faults_->faults()) {
        const auto track =
            trace_->track("link " + std::to_string(fault.link));
        const std::int64_t end =
            fault.repair == FaultTimeline::kNever
                ? std::max(now_, fault.start)
                : fault.repair;
        trace_->span(track, "down", "fault", fault.start, end,
                     {{"link", std::to_string(fault.link)}});
      }
    }
    return result;
  }

 private:
  void dispatch(const Event& ev) {
    switch (ev.kind) {
      case EventKind::kIssue:
        on_issue(ev.subject);
        break;
      case EventKind::kReserveStep:
        on_reserve_step(ev.subject, ev.hop, ev.attempt);
        break;
      case EventKind::kDstSelect:
        on_dst_select(ev.subject, ev.attempt);
        break;
      case EventKind::kAckStep:
        on_ack_step(ev.subject, ev.hop, ev.attempt);
        break;
      case EventKind::kNackStep:
        on_nack_step(ev.subject, ev.hop, ev.attempt);
        break;
      case EventKind::kDataDone:
        on_data_done(ev.subject);
        break;
      case EventKind::kReleaseStep:
        on_release_step(ev.subject, ev.hop);
        break;
      case EventKind::kTimeout:
        on_timeout(ev.subject, ev.attempt);
        break;
      case EventKind::kCleanup:
        on_cleanup(ev.subject, ev.attempt);
        break;
    }
  }

  void push(std::int64_t time, EventKind kind, std::int32_t subject,
            std::int32_t hop, std::int32_t attempt) {
    // kIssue subjects are node ids, so they carry no arena offset; every
    // other kind pushes from a handler that just touched msgs_[subject],
    // making this lookup an L1 hit.
    const std::uint32_t first_hop =
        kind == EventKind::kIssue
            ? 0u
            : msgs_[static_cast<std::size_t>(subject)].first_hop;
    events_.push(time, Event{subject, attempt, first_hop,
                             static_cast<std::int16_t>(hop), kind});
  }

  /// This message's path state at `hop` in the shared arena.
  PathHop& hop_at(const RuntimeMessage& rt, std::int32_t hop) {
    return hops_[rt.first_hop + static_cast<std::uint32_t>(hop)];
  }

  bool is_network(topo::LinkId link) const {
    return link_kinds_[static_cast<std::size_t>(link)] ==
           topo::LinkKind::kNetwork;
  }

  /// Tracing helpers.  All are no-ops with a null trace; the guards are
  /// the only cost the disabled path pays.  The emission bodies are kept
  /// out of line and cold so the untraced event handlers stay compact —
  /// inlined string building would bloat the hot path's I-cache footprint
  /// even when never executed.
  [[gnu::cold]] [[gnu::noinline]] obs::TrackId node_track(topo::NodeId node) {
    auto& cached = node_tracks_[static_cast<std::size_t>(node)];
    if (cached < 0) cached = trace_->track("node " + std::to_string(node));
    return cached;
  }

  /// Closes the current reservation-attempt span with its outcome
  /// ("ack" on success, "nack"/"timeout" on a failed attempt).
  void trace_attempt_end(const RuntimeMessage& rt, std::int32_t id,
                         const char* outcome) {
    if (trace_) trace_attempt_end_cold(rt, id, outcome);
  }

  [[gnu::cold]] [[gnu::noinline]] void trace_attempt_end_cold(
      const RuntimeMessage& rt, std::int32_t id, const char* outcome) {
    const auto start = attempt_starts_[static_cast<std::size_t>(id)];
    if (start < 0) return;
    trace_->span(node_track(rt.src), "reserve", "reservation",
                 start, now_,
                 {{"msg", std::to_string(id)},
                  {"attempt", std::to_string(rt.attempt)},
                  {"outcome", outcome}});
  }

  [[gnu::cold]] [[gnu::noinline]] void trace_ctrl_drop_cold(
      const RuntimeMessage& rt, std::int32_t id, CtrlTag tag,
      std::int32_t hop) {
    trace_->instant(node_track(rt.src), "ctrl-drop",
                    "ctrl-drop", now_,
                    {{"msg", std::to_string(id)},
                     {"tag", std::to_string(tag)},
                     {"hop", std::to_string(hop)}});
  }

  [[gnu::cold]] [[gnu::noinline]] void trace_timeout_cold(
      const RuntimeMessage& rt, std::int32_t id, std::int32_t attempt) {
    trace_->instant(node_track(rt.src), "timeout", "timeout",
                    now_,
                    {{"msg", std::to_string(id)},
                     {"attempt", std::to_string(attempt)}});
  }

  [[gnu::cold]] [[gnu::noinline]] void trace_payload_cold(
      const RuntimeMessage& rt, std::int32_t id) {
    trace_->span(node_track(rt.src), "payload", "payload",
                 stats_[static_cast<std::size_t>(id)].established, now_,
                 {{"msg", std::to_string(id)},
                  {"channel", std::to_string(rt.channel)},
                  {"lost", std::to_string(
                               stats_[static_cast<std::size_t>(id)]
                                   .payloads_lost)}});
  }

  [[gnu::cold]] [[gnu::noinline]] void trace_backoff_cold(
      const RuntimeMessage& rt, std::int32_t id, std::int64_t until) {
    trace_->span(node_track(rt.src), "backoff", "backoff",
                 now_, until,
                 {{"msg", std::to_string(id)},
                  {"retry",
                   std::to_string(stats_[static_cast<std::size_t>(id)]
                                      .retries)}});
  }

  /// True iff the event belongs to a superseded reservation attempt (the
  /// source timed out and moved on) or to a message already settled.
  bool stale(const RuntimeMessage& rt, std::int32_t attempt) const {
    return rt.attempt != attempt || rt.state == MsgState::kDone ||
           rt.state == MsgState::kFailed;
  }

  /// Deterministic control-packet drop decision for one shadow-network
  /// hop crossing.  Pure function of the timeline seed and the packet's
  /// identity, so results are independent of event interleaving.
  bool ctrl_dropped(const RuntimeMessage& rt, std::int32_t id, CtrlTag tag,
                    std::int32_t hop) {
    if (!has_faults_ || faults_->ctrl_loss() <= 0.0) return false;
    const auto key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                          id)) << 40) ^
                     (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                          rt.attempt)) << 16) ^
                     (static_cast<std::uint64_t>(tag) << 12) ^
                     static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(hop) & 0xfffU);
    if (!faults_->drop_ctrl(key)) return false;
    ++ctrl_dropped_;
    if (trace_) trace_ctrl_drop_cold(rt, id, tag, hop);
    return true;
  }

  /// Timeout armed per reservation attempt: explicit, or twice the
  /// worst-case control round trip plus one backoff.
  std::int64_t timeout_for(const RuntimeMessage& rt) const {
    if (params_.timeout_slots > 0) return params_.timeout_slots;
    const auto hops = static_cast<std::int64_t>(rt.hop_count);
    return 2 * (2 * params_.ctrl_local_slots +
                2 * hops * params_.ctrl_hop_slots) +
           params_.backoff_slots;
  }

  /// Head-of-line: the source works on the front message of its queue.
  void on_issue(std::int32_t node) {
    const auto n = static_cast<std::size_t>(node);
    if (queue_head_[n] >= queue_end_[n]) return;
    const auto id = queue_ids_[static_cast<std::size_t>(queue_head_[n])];
    auto& rt = msg(id);
    auto& stats = stats_[static_cast<std::size_t>(id)];
    if (stats.issued < 0) stats.issued = now_;
    rt.state = MsgState::kReserving;
    ++rt.attempt;
    if (trace_) attempt_starts_[static_cast<std::size_t>(id)] = now_;
    rt.mask = full_mask_;
    // Local issue processing, then the reservation starts at the
    // injection link (hop 0).
    push(now_ + params_.ctrl_local_slots, EventKind::kReserveStep, id, 0,
         rt.attempt);
    if (has_faults_)
      push(now_ + timeout_for(rt), EventKind::kTimeout, id, 0, rt.attempt);
  }

  void on_reserve_step(std::int32_t id, std::int32_t hop,
                       std::int32_t attempt) {
    auto& rt = msg(id);
    if (stale(rt, attempt)) return;
    auto& ph = hop_at(rt, hop);
    const auto link = ph.link;
    ChannelMask avail = rt.mask & free_[static_cast<std::size_t>(link)];
    // A link that is down reads as loss-of-signal at the controller: no
    // channel of it is reservable.
    if (has_link_faults_ && faults_->down(link, now_)) avail = 0;
    if (avail != 0 && reserve_one_)
      avail &= ChannelMask(0) - avail;  // keep only the lowest set bit
    if (avail == 0) {
      // Reservation failed: NACK back from the previous link.
      start_nack(id, hop - 1, attempt);
      return;
    }
    free_[static_cast<std::size_t>(link)] &= ~avail;
    ph.reserved = avail;
    rt.mask = avail;
    const bool is_last = hop + 1 == static_cast<std::int32_t>(rt.hop_count);
    if (is_last) {
      push(now_ + params_.ctrl_local_slots, EventKind::kDstSelect, id, 0,
           attempt);
    } else {
      // Crossing to the next switch costs a shadow-network hop when this
      // link is a network link; the injection link is switch-local.  Only
      // a genuine crossing can lose the packet.
      const bool network_hop = is_network(link);
      if (network_hop && ctrl_dropped(rt, id, kTagReserve, hop))
        return;  // the source's timeout will reclaim hops [0, hop]
      push(now_ + (network_hop ? params_.ctrl_hop_slots : 0),
           EventKind::kReserveStep, id, hop + 1, attempt);
    }
  }

  void on_dst_select(std::int32_t id, std::int32_t attempt) {
    auto& rt = msg(id);
    if (stale(rt, attempt)) return;
    rt.channel = static_cast<std::int16_t>(std::countr_zero(rt.mask));
    // The ACK walks the path backwards releasing non-selected channels.
    push(now_, EventKind::kAckStep, id,
         static_cast<std::int32_t>(rt.hop_count) - 1, attempt);
  }

  void on_ack_step(std::int32_t id, std::int32_t hop, std::int32_t attempt) {
    auto& rt = msg(id);
    if (stale(rt, attempt)) return;
    auto& ph = hop_at(rt, hop);
    const auto link = ph.link;
    const ChannelMask keep = ChannelMask{1}
                             << static_cast<unsigned>(rt.channel);
    free_[static_cast<std::size_t>(link)] |= ph.reserved & ~keep;
    ph.reserved = keep;
    if (hop == 0) {
      establish(id);
      return;
    }
    const bool network_hop = is_network(link);
    if (network_hop && ctrl_dropped(rt, id, kTagAck, hop))
      return;  // downstream is committed; timeout + hold timers recover
    push(now_ + (network_hop ? params_.ctrl_hop_slots : 0),
         EventKind::kAckStep, id, hop - 1, attempt);
  }

  void establish(std::int32_t id) {
    auto& rt = msg(id);
    auto& stats = stats_[static_cast<std::size_t>(id)];
    trace_attempt_end(rt, id, "ack");
    rt.state = MsgState::kTransmitting;
    stats.established = now_;
    stats.slot = rt.channel;
    const std::int64_t slots = msg_slots_[static_cast<std::size_t>(id)];
    // Reconfiguration latency: the granted switches need `reconfig_slots`
    // after the ACK before they can carry this circuit's light.
    const std::int64_t ready = now_ + params_.reconfig_slots;
    std::int64_t first = 0, stride = 1;
    if (params_.channel == ChannelKind::kWavelength) {
      // The wavelength runs at full rate: one payload per slot.
      first = ready + 1;
      push(ready + slots + 1, EventKind::kDataDone, id, 0, rt.attempt);
    } else {
      // TDM: first usable slot is the smallest T > ready with T mod K ==
      // channel; one payload per frame of K slots thereafter.
      const std::int64_t k = params_.multiplexing_degree;
      first = ready + 1;
      const std::int64_t offset =
          ((rt.channel - first) % k + k) % k;
      first += offset;
      stride = k;
      const std::int64_t last = first + (slots - 1) * k;
      push(last + 1, EventKind::kDataDone, id, 0, rt.attempt);
    }
    // Payload losses are decidable now: transmission slots are fixed the
    // moment the circuit is established, and the protocol has no
    // per-payload acknowledgment to react with.
    if (has_link_faults_) {
      path_scratch_.clear();
      for (std::uint32_t h = 0; h < rt.hop_count; ++h)
        path_scratch_.push_back(hops_[rt.first_hop + h].link);
      lost_scratch_.assign(static_cast<std::size_t>(slots), 0);
      faults_->mark_lost_payloads(path_scratch_, first, stride,
                                  lost_scratch_);
      stats.payloads_lost = static_cast<std::int64_t>(
          std::count(lost_scratch_.begin(), lost_scratch_.end(), char{1}));
    }
  }

  void on_data_done(std::int32_t id) {
    auto& rt = msg(id);
    auto& stats = stats_[static_cast<std::size_t>(id)];
    rt.state = MsgState::kDone;
    stats.completed = now_;
    stats.outcome = stats.payloads_lost > 0 ? MessageOutcome::kLost
                                            : MessageOutcome::kDelivered;
    if (trace_) trace_payload_cold(rt, id);
    --remaining_;
    // Release travels forward freeing the selected channel hop by hop.
    push(now_, EventKind::kReleaseStep, id, 0, rt.attempt);
    advance_queue(rt.src);
  }

  /// The source moves on to its next queued message.
  void advance_queue(topo::NodeId node) {
    const auto n = static_cast<std::size_t>(node);
    if (++queue_head_[n] < queue_end_[n])
      push(now_ + params_.ctrl_local_slots, EventKind::kIssue, node, 0, 0);
  }

  void on_release_step(std::int32_t id, std::int32_t hop) {
    auto& rt = msg(id);
    auto& ph = hop_at(rt, hop);
    const auto link = ph.link;
    free_[static_cast<std::size_t>(link)] |= ph.reserved;
    ph.reserved = 0;
    if (hop + 1 < static_cast<std::int32_t>(rt.hop_count)) {
      const bool network_hop = is_network(link);
      if (network_hop && ctrl_dropped(rt, id, kTagRelease, hop)) {
        // The downstream switches never hear the release; their hold
        // timers reclaim the channel after the time the sweep would have
        // taken plus a hold margin.
        push(now_ + params_.ctrl_local_slots +
                 static_cast<std::int64_t>(rt.hop_count) *
                     params_.ctrl_hop_slots,
             EventKind::kCleanup, id, 0, rt.attempt);
        return;
      }
      push(now_ + (network_hop ? params_.ctrl_hop_slots : 0),
           EventKind::kReleaseStep, id, hop + 1, 0);
    }
  }

  void start_nack(std::int32_t id, std::int32_t hop, std::int32_t attempt) {
    if (hop < 0) {
      retry(id, "nack");
      return;
    }
    push(now_, EventKind::kNackStep, id, hop, attempt);
  }

  void on_nack_step(std::int32_t id, std::int32_t hop, std::int32_t attempt) {
    auto& rt = msg(id);
    if (stale(rt, attempt)) return;
    auto& ph = hop_at(rt, hop);
    const auto link = ph.link;
    free_[static_cast<std::size_t>(link)] |= ph.reserved;
    ph.reserved = 0;
    if (hop == 0) {
      retry(id, "nack");
      return;
    }
    const bool network_hop = is_network(link);
    if (network_hop && ctrl_dropped(rt, id, kTagNack, hop))
      return;  // source times out instead of hearing the NACK
    push(now_ + (network_hop ? params_.ctrl_hop_slots : 0),
         EventKind::kNackStep, id, hop - 1, attempt);
  }

  /// The source's reservation timer: the attempt is presumed lost.  Per-
  /// switch hold timers expire with it, reclaiming whatever the attempt
  /// still held, and the source backs off and retries.
  void on_timeout(std::int32_t id, std::int32_t attempt) {
    auto& rt = msg(id);
    if (rt.state != MsgState::kReserving || rt.attempt != attempt) return;
    ++stats_[static_cast<std::size_t>(id)].timeouts;
    if (trace_) trace_timeout_cold(rt, id, attempt);
    release_all(rt);
    retry(id, "timeout");
  }

  /// Hold-timer reclamation after a lost RELEASE sweep.
  void on_cleanup(std::int32_t id, std::int32_t attempt) {
    auto& rt = msg(id);
    if (rt.attempt != attempt) return;
    release_all(rt);
  }

  /// One-shot livelock diagnostic (satisfied exactly once per run, when
  /// accumulated retries reach the threshold): flag the result and warn —
  /// once per *process*, so a sweep over collapsing cells prints one line
  /// instead of thousands.  Observational only: no timing or RNG change.
  [[gnu::cold]] [[gnu::noinline]] void flag_livelock() {
    livelock_flagged_ = true;
    static std::atomic<bool> warned{false};
    if (warned.exchange(true, std::memory_order_relaxed)) return;
    std::fprintf(
        stderr,
        "optdm: warning: dynamic engine livelock suspected on %s: %lld "
        "reservation retries across %zu messages (threshold %lld/message) "
        "and still climbing — the fabric is burning cycles on failed "
        "reservations (cf. the 64x64 reserve-all collapse, ~21.6k "
        "retries/message).  Consider Policy::kReserveOne, a smaller "
        "pattern, or a compiled schedule.  (warned once per process)\n",
        net_.name().c_str(), static_cast<long long>(running_retries_),
        msgs_.size(),
        static_cast<long long>(params_.livelock_retries_per_message));
  }

  void release_all(RuntimeMessage& rt) {
    for (std::uint32_t h = 0; h < rt.hop_count; ++h) {
      auto& ph = hops_[rt.first_hop + h];
      free_[static_cast<std::size_t>(ph.link)] |= ph.reserved;
      ph.reserved = 0;
    }
  }

  void retry(std::int32_t id, const char* cause) {
    auto& rt = msg(id);
    auto& stats = stats_[static_cast<std::size_t>(id)];
    trace_attempt_end(rt, id, cause);
    // Back to the queued state: a stale timeout firing during the backoff
    // wait must not trigger a second concurrent retry of this message.
    rt.state = MsgState::kQueued;
    // Supersede the abandoned attempt immediately.  Without this, in-flight
    // RESERVE/ACK packets of a timed-out attempt still pass the stale()
    // check during the backoff wait: the walk re-reserves hops the timeout
    // already released, and a late ACK can "establish" a connection whose
    // upstream channels are back in the free pool — two connections could
    // then share a link channel.
    ++rt.attempt;
    ++stats.retries;
    if (++running_retries_ == livelock_threshold_) flag_livelock();
    if (params_.retry_budget > 0 &&
        stats.retries > params_.retry_budget) {
      fail_message(id);
      return;
    }
    // Capped exponential backoff: double per failed attempt up to the
    // cap; with no cap configured this is the paper's constant backoff
    // (identical RNG draws, bit for bit).
    std::int64_t base = params_.backoff_slots;
    if (params_.max_backoff_slots > 0) {
      for (int a = 1; a < stats.retries &&
                      base < params_.max_backoff_slots;
           ++a)
        base = std::min(base * 2, params_.max_backoff_slots);
    }
    const std::int64_t jitter =
        rng_.uniform(0, std::max<std::int64_t>(base - 1, 0));
    if (trace_) trace_backoff_cold(rt, id, now_ + base + jitter);
    push(now_ + base + jitter, EventKind::kIssue,
         rt.src, 0, 0);
  }

  /// Retry budget exhausted: report the message failed and unblock the
  /// source's queue instead of wedging it forever.
  void fail_message(std::int32_t id) {
    auto& rt = msg(id);
    rt.state = MsgState::kFailed;
    stats_[static_cast<std::size_t>(id)].outcome = MessageOutcome::kFailed;
    release_all(rt);  // defensive; NACK/timeout paths already released
    --remaining_;
    advance_queue(rt.src);
  }

  RuntimeMessage& msg(std::int32_t id) {
    return msgs_[static_cast<std::size_t>(id)];
  }

  const topo::Network& net_;
  DynamicParams params_;
  const FaultTimeline* faults_;
  obs::Trace* trace_ = nullptr;
  bool has_faults_ = false;
  bool has_link_faults_ = false;
  /// Hoisted `params_.policy == kReserveOne` (read on every reserve step).
  bool reserve_one_ = false;
  std::vector<obs::TrackId> node_tracks_;
  /// Issue time of each message's current attempt (tracing only; sized
  /// only when a trace sink is attached).
  std::vector<std::int64_t> attempt_starts_;
  util::Rng rng_;
  ChannelMask full_mask_ = 1;
  std::int64_t now_ = 0;
  std::int64_t ctrl_dropped_ = 0;
  std::size_t remaining_ = 0;
  /// Free-channel occupancy words, one 64-bit word per link (sized via
  /// `Network::occupancy_words`).
  std::vector<ChannelMask> free_;
  /// SoA link-kind table borrowed from `net_` (which outlives the run).
  std::span<const topo::LinkKind> link_kinds_;
  /// Path-hop arena: message m's path is
  /// `hops_[m.first_hop .. m.first_hop + m.hop_count)`, laid out in
  /// queue order.
  std::vector<PathHop> hops_;
  std::vector<RuntimeMessage> msgs_;
  /// Cold per-message input: payload size in slots (read once per
  /// establish).
  std::vector<std::int64_t> msg_slots_;
  std::vector<DynamicMessageStats> stats_;
  /// Flat per-source FIFO queues over `queue_ids_`.
  std::vector<std::int32_t> queue_ids_;
  std::vector<std::int32_t> queue_head_;
  std::vector<std::int32_t> queue_end_;
  /// Reused payload-loss marking buffer (fault runs only).
  std::vector<char> lost_scratch_;
  /// Reused path-link buffer for `mark_lost_payloads` (fault runs only).
  std::vector<topo::LinkId> path_scratch_;
  /// Livelock diagnostic: running retry count across all messages, the
  /// run-level trip point (0 = disabled), and the one-shot flag.
  std::int64_t running_retries_ = 0;
  std::int64_t livelock_threshold_ = 0;
  bool livelock_flagged_ = false;
  SlotQueue<Event> events_;
};

}  // namespace

DynamicResult simulate_dynamic(const topo::Network& net,
                               std::span<const Message> messages,
                               const DynamicParams& params,
                               const SimOptions& options) {
  static const FaultTimeline kHealthy;
  Simulator sim(net, messages, params,
                options.faults ? *options.faults : kHealthy, options.trace);
  auto result = sim.run();
  if (options.report) {
    auto report = obs::report_dynamic(net, messages, result, params);
    if (options.counters) report.sched = *options.counters;
    if (result.livelock && !messages.empty())
      report.sched.livelock_retries_per_message =
          result.total_retries / static_cast<std::int64_t>(messages.size());
    options.report->accept(report);
  }
  return result;
}

}  // namespace optdm::sim
