#include "obs/journal.h"

#include "common/json.h"

namespace corropt::obs {

std::string_view kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kCorruptionDetected:
      return "corruption_detected";
    case EventKind::kFastCheckVerdict:
      return "fast_check";
    case EventKind::kLinkDisabled:
      return "link_disabled";
    case EventKind::kLinkEnabled:
      return "link_enabled";
    case EventKind::kCorruptionCleared:
      return "corruption_cleared";
    case EventKind::kTicketOpened:
      return "ticket_opened";
    case EventKind::kTicketClosed:
      return "ticket_closed";
    case EventKind::kOptimizerRun:
      return "optimizer_run";
    case EventKind::kRepairAttempt:
      return "repair_attempt";
    case EventKind::kRedetection:
      return "redetection";
    case EventKind::kMaintenanceStart:
      return "maintenance_start";
    case EventKind::kMaintenanceEnd:
      return "maintenance_end";
    case EventKind::kPolledDetection:
      return "polled_detection";
    case EventKind::kPenaltySample:
      return "penalty_sample";
    case EventKind::kFaultInjected:
      return "fault_injected";
    case EventKind::kDetectionVerdict:
      return "detection_verdict";
  }
  return "unknown";
}

std::string_view reason_name(EventReason reason) {
  switch (reason) {
    case EventReason::kNone:
      return "";
    case EventReason::kArrival:
      return "arrival";
    case EventReason::kActivation:
      return "activation";
    case EventReason::kDisabledVerdict:
      return "disabled";
    case EventReason::kRefusedCapacity:
      return "refused_capacity";
    case EventReason::kAlreadyDisabled:
      return "already_disabled";
    case EventReason::kSucceeded:
      return "succeeded";
    case EventReason::kFailed:
      return "failed";
  }
  return "unknown";
}

void write_event_jsonl(std::ostream& out, const Event& event,
                       std::string_view scenario) {
  // Hand-assembled single line (JsonWriter pretty-prints); strings still
  // go through the one escaping implementation in common/json.h.
  out << '{';
  if (!scenario.empty()) {
    out << "\"scenario\":\"" << common::json_escape(scenario) << "\",";
  }
  out << "\"seq\":" << event.seq << ",\"t\":" << event.time << ",\"kind\":\""
      << kind_name(event.kind) << '"';
  if (event.reason != EventReason::kNone) {
    out << ",\"reason\":\"" << reason_name(event.reason) << '"';
  }
  if (event.link.valid()) out << ",\"link\":" << event.link.value();
  if (event.sw.valid()) out << ",\"switch\":" << event.sw.value();
  if (event.ticket.valid()) out << ",\"ticket\":" << event.ticket.value();
  out << ",\"value\":" << common::json_number(event.value);
  if (event.value2 != 0.0) {
    out << ",\"value2\":" << common::json_number(event.value2);
  }
  if (event.detail0 != 0) out << ",\"d0\":" << event.detail0;
  if (event.detail1 != 0) out << ",\"d1\":" << event.detail1;
  out << '}';
}

EventJournal::EventJournal(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void EventJournal::append(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::uint64_t EventJournal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<Event> EventJournal::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void EventJournal::restore(const std::vector<Event>& events,
                           std::uint64_t next_seq, std::uint64_t dropped) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  if (events.size() <= capacity_) {
    ring_ = events;
  } else {
    // This journal is smaller than the one that produced the snapshot:
    // keep the newest `capacity_` records, count the rest as evicted,
    // exactly as if they had been appended in order.
    ring_.assign(events.end() - static_cast<std::ptrdiff_t>(capacity_),
                 events.end());
    dropped += events.size() - capacity_;
  }
  next_seq_ = next_seq;
  dropped_ = dropped;
}

}  // namespace corropt::obs
