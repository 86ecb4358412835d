#include "rpc/channel.hpp"

#include <algorithm>
#include <bit>

#include "sim/trace_hook.hpp"

namespace dcache::rpc {

bool CircuitBreaker::allowRequest(double nowMicros) noexcept {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (nowMicros < openUntilMicros_) return false;
      state_ = State::kHalfOpen;
      probeInFlight_ = false;
      [[fallthrough]];
    case State::kHalfOpen:
      if (probeInFlight_) return false;  // one probe at a time
      probeInFlight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::record(bool ok, double nowMicros) noexcept {
  if (state_ == State::kHalfOpen) {
    probeInFlight_ = false;
    if (ok) {
      // Probe paid off: close with a clean slate, so one stray failure
      // right after recovery doesn't re-trip on stale window history.
      state_ = State::kClosed;
      window_ = 0;
      samples_ = 0;
    } else {
      trip(nowMicros);  // destination still sick: straight back to open
    }
    return;
  }
  if (state_ != State::kClosed) return;  // outcomes while open don't count
  const std::size_t cap = std::min<std::size_t>(policy_.windowSize, 64);
  window_ = (window_ << 1) | (ok ? 0ULL : 1ULL);
  if (samples_ < cap) ++samples_;
  const std::uint64_t mask =
      cap >= 64 ? ~0ULL : ((1ULL << cap) - 1ULL);
  const auto failures =
      static_cast<std::size_t>(std::popcount(window_ & mask));
  if (samples_ >= policy_.minSamples &&
      static_cast<double>(failures) >=
          policy_.failureRateToOpen * static_cast<double>(samples_)) {
    trip(nowMicros);
  }
}

void CircuitBreaker::trip(double nowMicros) noexcept {
  state_ = State::kOpen;
  openUntilMicros_ = nowMicros + policy_.openMicros;
  window_ = 0;
  samples_ = 0;
  probeInFlight_ = false;
  ++opens_;
}

CallResult Channel::callSlow(sim::Node& client, sim::Node& server,
                             std::uint64_t requestBytes,
                             std::uint64_t responseBytes, bool marshal,
                             sim::CpuComponent framingComponent) noexcept {
  const PolicyCallResult policyResult =
      callWithPolicy(client, server, requestBytes, responseBytes,
                     defaultPolicy_, marshal, framingComponent);
  CallResult result;
  result.latencyMicros = policyResult.latencyMicros;
  result.requestBytes = requestBytes;
  result.responseBytes = responseBytes;
  result.ok = policyResult.ok;
  return result;
}

bool Channel::legDropped(const sim::Node& src, const sim::Node& dst) noexcept {
  const double p = network_->dropProbability();
  const double fs = src.flakyProbability();
  const double fd = dst.flakyProbability();
  if (fs > 0.0 || fd > 0.0) [[unlikely]] {
    // A flaky endpoint drops legs independently of the degradation window.
    // Combined only when a flaky window is actually open: 1-(1-p) is not p
    // in floating point, so the plain-p path below must stay untouched for
    // byte-identity outside flaky windows.
    const double combined = 1.0 - (1.0 - p) * (1.0 - fs) * (1.0 - fd);
    return util::uniform01(faultRng_) < combined;
  }
  if (p <= 0.0) return false;  // no RNG draw: determinism outside windows
  return util::uniform01(faultRng_) < p;
}

PolicyCallResult Channel::callWithPolicy(
    sim::Node& client, sim::Node& server, std::uint64_t requestBytes,
    std::uint64_t responseBytes, const CallPolicy& policy, bool marshal,
    sim::CpuComponent framingComponent) noexcept {
  if (&client == &server) {  // in-process: nothing can fail or cost
    ++calls_;
    PolicyCallResult out;
    out.ok = true;
    out.attempts = 1;
    return out;
  }

  CircuitBreaker* breaker = nullptr;
  if (breakersEnabled_) {
    breaker = &breakers_.try_emplace(&server, breakerPolicy_).first->second;
    if (!breaker->allowRequest(static_cast<double>(nowMicros_))) {
      // Tripped: fail fast, nothing touches the wire. The caller already
      // built the request, though — a short-circuit is cheap, not free.
      ++calls_;
      PolicyCallResult out;
      double wasted = 0.0;
      if (marshal) {
        serializer_.chargeSerialize(client, requestBytes);
        wasted += serializer_.serializeMicros(requestBytes);
      }
      out.wastedCpuMicros += wasted;
      faultCounters_.wastedCpuMicros += wasted;
      ++faultCounters_.breakerShortCircuits;
      return out;
    }
  }
  const std::uint64_t opensBefore = breaker ? breaker->opens() : 0;
  const PolicyCallResult out = runAttempts(
      client, server, requestBytes, responseBytes, policy, marshal,
      framingComponent);
  if (breaker) {
    breaker->record(out.ok, static_cast<double>(nowMicros_));
    faultCounters_.breakerOpens += breaker->opens() - opensBefore;
  }
  if (observer_ != nullptr) {
    observer_->onCallOutcome(server, out.ok, out.latencyMicros, nowMicros_);
  }
  return out;
}

PolicyCallResult Channel::runAttempts(
    sim::Node& client, sim::Node& server, std::uint64_t requestBytes,
    std::uint64_t responseBytes, const CallPolicy& policy, bool marshal,
    sim::CpuComponent framingComponent) noexcept {
  PolicyCallResult out;
  const bool hasDeadline = policy.deadlineMicros > 0.0;
  const std::size_t budget = std::max<std::size_t>(policy.maxAttempts, 1);
  for (std::size_t attempt = 0; attempt < budget; ++attempt) {
    if (hasDeadline && out.latencyMicros >= policy.deadlineMicros) {
      // The per-call budget is gone: stop retrying even though the attempt
      // budget isn't. Counted apart from the timeouts that drained it.
      ++faultCounters_.budgetExhausted;
      break;
    }
    // One span per attempt: a retried call shows up in a trace as a ladder
    // of timed-out legs followed by the leg that paid off (or kFailed
    // silence). All the wasted CPU lands on the timed-out spans, which is
    // how the conservation test sees retry cost attributed exactly once.
    sim::SpanGuard attemptSpan("rpc.attempt", server.tier());
    if (attempt > 0) {
      // Exponential backoff with seeded jitter; pure waiting, no CPU.
      double backoff = policy.backoffBaseMicros *
                       static_cast<double>(1ULL << (attempt - 1));
      backoff = std::min(backoff, policy.backoffMaxMicros);
      if (policy.jitterFraction > 0.0) {
        backoff *= 1.0 + policy.jitterFraction *
                             (2.0 * util::uniform01(faultRng_) - 1.0);
      }
      if (hasDeadline) {
        backoff = std::min(backoff, policy.deadlineMicros - out.latencyMicros);
      }
      out.latencyMicros += backoff;
      ++faultCounters_.retries;
    }
    ++out.attempts;
    ++calls_;
    // Each failed wait below is capped by the remaining budget, so the
    // total can never overshoot the deadline.
    const double attemptTimeout =
        hasDeadline ? std::min(policy.timeoutMicros,
                               policy.deadlineMicros - out.latencyMicros)
                    : policy.timeoutMicros;

    // Request leg. A down server, a cut client->server link (asymmetric
    // partition) or a dropped packet loses the leg: the client already paid
    // to marshal and send, then waits out the timeout.
    if (!server.isUp() ||
        network_->linkCut(client.tier(), server.tier()) ||
        legDropped(client, server)) {
      double wasted = 0.0;
      if (marshal) {
        serializer_.chargeSerialize(client, requestBytes);
        wasted += serializer_.serializeMicros(requestBytes);
      }
      network_->chargeLostLeg(client, requestBytes, framingComponent);
      wasted += network_->params().perMessageCpuMicros +
                network_->params().perByteCpuMicros *
                    static_cast<double>(requestBytes);
      out.latencyMicros += attemptTimeout;
      out.wastedCpuMicros += wasted;
      ++out.timedOutLegs;
      ++faultCounters_.timeouts;
      faultCounters_.wastedCpuMicros += wasted;
      attemptSpan.setOutcome(sim::SpanOutcome::kTimeout);
      continue;
    }

    // Destination queueing: with a finite capacity configured the attempt
    // waits behind the node's backlog before service.
    if (server.queue().enabled()) {
      sim::NodeQueue& queue = server.queue();
      queue.drainTo(nowMicros_);
      const double wait = queue.waitMicros();
      if (wait >= queue.params().maxWaitMicros) {
        // Bounded queue is full: the node bounces the request at the door.
        // Cheap for the server (that is the point of bounding the queue),
        // but the client's marshal + send is spent, and the retry path
        // will probably bring the request straight back.
        double wasted = 0.0;
        if (marshal) {
          serializer_.chargeSerialize(client, requestBytes);
          wasted += serializer_.serializeMicros(requestBytes);
        }
        network_->chargeLostLeg(client, requestBytes, framingComponent);
        wasted += network_->params().perMessageCpuMicros +
                  network_->params().perByteCpuMicros *
                      static_cast<double>(requestBytes);
        out.latencyMicros += 2.0 * network_->params().oneWayLatencyMicros;
        out.wastedCpuMicros += wasted;
        ++out.timedOutLegs;
        ++faultCounters_.queueRejections;
        faultCounters_.wastedCpuMicros += wasted;
        attemptSpan.setOutcome(sim::SpanOutcome::kQueueTimeout);
        continue;
      }
      if (wait > attemptTimeout) {
        // The client will give up before the server reaches the request —
        // but the server can't know that: the request sits in the queue
        // and is processed anyway. Work the cluster pays for that nobody
        // receives; under retries this is the metastable-failure
        // amplifier (every abandoned attempt deepens the very backlog
        // that caused it).
        double wasted = 0.0;
        if (marshal) {
          serializer_.chargeSerialize(client, requestBytes);
          serializer_.chargeDeserialize(server, requestBytes);
          wasted += serializer_.serializeMicros(requestBytes) +
                    serializer_.deserializeMicros(requestBytes);
        }
        network_->transfer(client, server, requestBytes, framingComponent);
        wasted += 2.0 * (network_->params().perMessageCpuMicros +
                         network_->params().perByteCpuMicros *
                             static_cast<double>(requestBytes));
        out.latencyMicros += attemptTimeout;
        out.wastedCpuMicros += wasted;
        ++out.timedOutLegs;
        ++faultCounters_.timeouts;
        ++faultCounters_.queueTimeouts;
        faultCounters_.wastedCpuMicros += wasted;
        attemptSpan.setOutcome(sim::SpanOutcome::kQueueTimeout);
        continue;
      }
      out.latencyMicros += wait;  // service starts after the backlog drains
    }

    if (marshal) serializer_.chargeSerialize(client, requestBytes);
    out.latencyMicros +=
        network_->transfer(client, server, requestBytes, framingComponent);
    if (marshal) {
      serializer_.chargeDeserialize(server, requestBytes);
      serializer_.chargeSerialize(server, responseBytes);
    }

    // Response leg. A drop here wastes the whole round so far: the server
    // did its work, but the client never sees the answer. A cut
    // server->client link is the expensive asymmetric-partition case: every
    // request gets through, every answer is lost, and the server burns full
    // work per retry.
    if (network_->linkCut(server.tier(), client.tier()) ||
        legDropped(server, client)) {
      network_->chargeLostLeg(server, responseBytes, framingComponent);
      double wasted = network_->params().perMessageCpuMicros +
                      network_->params().perByteCpuMicros *
                          static_cast<double>(responseBytes);
      // The request leg's endpoint CPU was spent for nothing too.
      wasted += 2.0 * (network_->params().perMessageCpuMicros +
                       network_->params().perByteCpuMicros *
                           static_cast<double>(requestBytes));
      if (marshal) {
        wasted += serializer_.serializeMicros(requestBytes) +
                  serializer_.deserializeMicros(requestBytes) +
                  serializer_.serializeMicros(responseBytes);
      }
      out.latencyMicros += attemptTimeout;
      out.wastedCpuMicros += wasted;
      ++out.timedOutLegs;
      ++faultCounters_.timeouts;
      faultCounters_.wastedCpuMicros += wasted;
      attemptSpan.setOutcome(sim::SpanOutcome::kTimeout);
      continue;
    }

    out.latencyMicros +=
        network_->transfer(server, client, responseBytes, framingComponent);
    if (marshal) serializer_.chargeDeserialize(client, responseBytes);
    out.ok = true;
    if (attempt > 0) attemptSpan.setOutcome(sim::SpanOutcome::kRetry);
    return out;
  }

  ++faultCounters_.failedCalls;
  return out;
}

double Channel::hedgeDelayMicros(sim::TierKind tier) const noexcept {
  const util::Histogram& tracked =
      hedgeLatency_[static_cast<std::size_t>(tier)];
  if (tracked.count() < hedgePolicy_.minSamples) {
    return hedgePolicy_.minHedgeDelayMicros;
  }
  return std::max(hedgePolicy_.minHedgeDelayMicros,
                  tracked.quantile(hedgePolicy_.quantile));
}

void Channel::noteHedgeLatency(sim::TierKind tier,
                               const PolicyCallResult& result) noexcept {
  if (!result.ok) return;  // the tracker models healthy-call latency
  hedgeLatency_[static_cast<std::size_t>(tier)].record(result.latencyMicros);
}

PolicyCallResult Channel::callHedged(
    sim::Node& client, sim::Node& primary, sim::Node* backup,
    std::uint64_t requestBytes, std::uint64_t responseBytes,
    const CallPolicy& policy, bool marshal,
    sim::CpuComponent framingComponent) noexcept {
  if (!hedgingEnabled_ || backup == nullptr || backup == &primary ||
      !backup->isUp()) {
    const PolicyCallResult out =
        callWithPolicy(client, primary, requestBytes, responseBytes, policy,
                       marshal, framingComponent);
    if (hedgingEnabled_) noteHedgeLatency(primary.tier(), out);
    return out;
  }

  const double hedgeDelay = hedgeDelayMicros(primary.tier());
  const PolicyCallResult first =
      callWithPolicy(client, primary, requestBytes, responseBytes, policy,
                     marshal, framingComponent);
  noteHedgeLatency(primary.tier(), first);
  if (first.ok && first.latencyMicros <= hedgeDelay) return first;

  // The primary blew through the tracked quantile (or failed outright):
  // fire one backup attempt at the replica. Whichever answer lands first
  // wins; cancel-on-first-win can't unspend the loser's CPU, so both
  // attempts stay billed — the hedge's cost is the price of the tail it
  // shaves.
  sim::SpanGuard hedgeSpan("rpc.hedge", backup->tier());
  hedgeSpan.setOutcome(sim::SpanOutcome::kHedged);
  ++faultCounters_.hedgesSent;
  CallPolicy single = policy;
  single.maxAttempts = 1;  // the hedge is the retry
  const PolicyCallResult hedge =
      callWithPolicy(client, *backup, requestBytes, responseBytes, single,
                     marshal, framingComponent);
  noteHedgeLatency(backup->tier(), hedge);

  PolicyCallResult out = first;
  out.attempts += hedge.attempts;
  out.timedOutLegs += hedge.timedOutLegs;
  out.wastedCpuMicros += hedge.wastedCpuMicros;
  if (hedge.ok) {
    const double viaHedge = hedgeDelay + hedge.latencyMicros;
    if (!first.ok || viaHedge < first.latencyMicros) {
      ++faultCounters_.hedgeWins;
      out.ok = true;
      out.latencyMicros =
          first.ok ? std::min(first.latencyMicros, viaHedge) : viaHedge;
    }
  }
  return out;
}

CallResult Channel::oneSidedRead(sim::Node& initiator, sim::Node& target,
                                 std::uint64_t payloadBytes,
                                 const OneSidedParams& params) noexcept {
  constexpr auto kComp = sim::CpuComponent::kFarMemAccess;
  CallResult result;
  result.responseBytes = payloadBytes;
  if (&initiator == &target) {  // in-process: free by design, like call()
    ++calls_;
    return result;
  }

  const auto wireLatency = [&]() noexcept {
    double latency =
        2.0 * params.oneWayLatencyMicros +
        params.perByteLatencyMicros * static_cast<double>(payloadBytes);
    if (network_->degraded()) latency *= network_->latencyFactor();
    if (network_->anySlowNodes()) [[unlikely]] {
      // A throttled target drags the read even though its CPU is off the
      // path: the NIC and memory bus run on the same starved clock.
      const double s = initiator.slowFactor() > target.slowFactor()
                           ? initiator.slowFactor()
                           : target.slowFactor();
      if (s != 1.0) latency *= s;
    }
    return latency;
  };
  const auto chargeSuccess = [&]() noexcept {
    // Three separate charges, not one fused sum: the byte-accounting test
    // reproduces bytes x per-byte price exactly, which a fused
    // floating-point add order would perturb.
    initiator.charge(kComp, params.issueMicros);
    initiator.charge(
        kComp, params.perByteCpuMicros * static_cast<double>(payloadBytes));
    initiator.charge(kComp, params.completionMicros);
    target.charge(kComp, params.targetTouchMicros);
    network_->noteBytes(payloadBytes);
  };

  if (!faultsEnabled_) [[likely]] {
    ++calls_;
    chargeSuccess();
    result.latencyMicros = wireLatency();
    return result;
  }

  // Fault path: same admission (breaker), retry ladder, and observer feed
  // as a unary call — a far-memory node can be just as down, partitioned,
  // flaky or gray-slow as an RPC server; only the per-leg cost shape
  // differs (a lost read wastes the tiny issue cost, not a marshalled
  // request).
  const CallPolicy& policy = defaultPolicy_;
  CircuitBreaker* breaker = nullptr;
  if (breakersEnabled_) {
    breaker = &breakers_.try_emplace(&target, breakerPolicy_).first->second;
    if (!breaker->allowRequest(static_cast<double>(nowMicros_))) {
      ++calls_;
      initiator.charge(kComp, params.issueMicros);
      faultCounters_.wastedCpuMicros += params.issueMicros;
      ++faultCounters_.breakerShortCircuits;
      result.ok = false;
      return result;
    }
  }
  const std::uint64_t opensBefore = breaker ? breaker->opens() : 0;
  const bool hasDeadline = policy.deadlineMicros > 0.0;
  const std::size_t budget = std::max<std::size_t>(policy.maxAttempts, 1);
  bool ok = false;
  for (std::size_t attempt = 0; attempt < budget; ++attempt) {
    if (hasDeadline && result.latencyMicros >= policy.deadlineMicros) {
      ++faultCounters_.budgetExhausted;
      break;
    }
    sim::SpanGuard attemptSpan("rdma.attempt", target.tier());
    if (attempt > 0) {
      double backoff = policy.backoffBaseMicros *
                       static_cast<double>(1ULL << (attempt - 1));
      backoff = std::min(backoff, policy.backoffMaxMicros);
      if (policy.jitterFraction > 0.0) {
        backoff *= 1.0 + policy.jitterFraction *
                             (2.0 * util::uniform01(faultRng_) - 1.0);
      }
      if (hasDeadline) {
        backoff =
            std::min(backoff, policy.deadlineMicros - result.latencyMicros);
      }
      result.latencyMicros += backoff;
      ++faultCounters_.retries;
    }
    ++calls_;
    const double attemptTimeout =
        hasDeadline ? std::min(policy.timeoutMicros,
                               policy.deadlineMicros - result.latencyMicros)
                    : policy.timeoutMicros;
    // Posting leg: a down target, a cut initiator->target direction, or a
    // dropped leg loses the read before any memory is touched — the
    // initiator spent only the issue cost and waits out the timeout.
    if (!target.isUp() ||
        network_->linkCut(initiator.tier(), target.tier()) ||
        legDropped(initiator, target)) {
      initiator.charge(kComp, params.issueMicros);
      result.latencyMicros += attemptTimeout;
      ++faultCounters_.timeouts;
      faultCounters_.wastedCpuMicros += params.issueMicros;
      attemptSpan.setOutcome(sim::SpanOutcome::kTimeout);
      continue;
    }
    // Data return: the target's memory was read but the payload never
    // lands (reverse-direction cut, or a drop rolled for the return leg).
    if (network_->linkCut(target.tier(), initiator.tier()) ||
        legDropped(target, initiator)) {
      initiator.charge(kComp, params.issueMicros);
      target.charge(kComp, params.targetTouchMicros);
      result.latencyMicros += attemptTimeout;
      ++faultCounters_.timeouts;
      faultCounters_.wastedCpuMicros +=
          params.issueMicros + params.targetTouchMicros;
      attemptSpan.setOutcome(sim::SpanOutcome::kTimeout);
      continue;
    }
    chargeSuccess();
    result.latencyMicros += wireLatency();
    ok = true;
    if (attempt > 0) attemptSpan.setOutcome(sim::SpanOutcome::kRetry);
    break;
  }
  if (!ok) ++faultCounters_.failedCalls;
  result.ok = ok;
  if (breaker) {
    breaker->record(ok, static_cast<double>(nowMicros_));
    faultCounters_.breakerOpens += breaker->opens() - opensBefore;
  }
  if (observer_ != nullptr) {
    observer_->onCallOutcome(target, ok, result.latencyMicros, nowMicros_);
  }
  return result;
}

double Channel::oneWay(sim::Node& from, sim::Node& to, std::uint64_t bytes,
                       bool marshal,
                       sim::CpuComponent framingComponent) noexcept {
  ++calls_;
  if (&from == &to) return 0.0;
  if (faultsEnabled_ &&
      (!to.isUp() || network_->linkCut(from.tier(), to.tier()) ||
       legDropped(from, to))) {
    // Fire-and-forget into the void: the sender pays, the message is lost.
    double wasted = 0.0;
    if (marshal) {
      serializer_.chargeSerialize(from, bytes);
      wasted += serializer_.serializeMicros(bytes);
    }
    const double latency =
        network_->chargeLostLeg(from, bytes, framingComponent);
    wasted += network_->params().perMessageCpuMicros +
              network_->params().perByteCpuMicros * static_cast<double>(bytes);
    faultCounters_.wastedCpuMicros += wasted;
    return latency;
  }
  if (marshal) serializer_.chargeSerialize(from, bytes);
  const double latency = network_->transfer(from, to, bytes, framingComponent);
  if (marshal) serializer_.chargeDeserialize(to, bytes);
  return latency;
}

}  // namespace dcache::rpc
