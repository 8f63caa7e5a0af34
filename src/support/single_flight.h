// SingleFlight: a keyed cache that builds each value on first request.
// Concurrent callers of one key share one build, distinct keys never wait
// on each other, and a failed build reaches every caller waiting on it and
// is forgotten. A key's slot lives only while a caller waits on it or holds
// its value, except that the latest value built stays resident: a key asked
// for twice in a row is built once, and at most one unheld value is kept.
#pragma once

#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace simprof::support {

template <class Key, class Value>
class SingleFlight {
 public:
  using Ptr = std::shared_ptr<Value>;

  /// A metric prefix P names counters P_synth, P_shared and gauge P_resident.
  explicit SingleFlight(const std::string& prefix = {}) {
    if (prefix.empty()) return;
    state_->builds = &obs::metrics().counter(prefix + "_synth");
    state_->shares = &obs::metrics().counter(prefix + "_shared");
    state_->resident = &obs::metrics().gauge(prefix + "_resident");
  }

  /// The key's value; `build()` returns a Value, and runs only if needed.
  template <class Build>
  Ptr get(const Key& key, Build&& build) {
    State& s = *state_;
    std::unique_lock<std::mutex> lock(s.mu);
    Slot& slot = s.slots[key];
    Ptr value = slot.value.lock();
    if (value || slot.flight.valid()) {
      if (s.shares) s.shares->increment();
      if (value) return value;
      const std::shared_future<Ptr> flight = slot.flight;
      lock.unlock();
      return flight.get();
    }
    if (s.builds) s.builds->increment();
    std::promise<Ptr> landed;
    slot.flight = landed.get_future().share();
    s.publish();
    lock.unlock();  // other keys build meanwhile
    try {
      value = Ptr(new Value(build()),
                  [weak = std::weak_ptr<State>(state_), key](Value* v) {
                    if (const auto state = weak.lock()) state->release(key);
                    delete v;
                  });
    } catch (...) {
      lock.lock();
      s.slots.erase(key);
      s.publish();
      landed.set_exception(std::current_exception());
      throw;
    }
    lock.lock();
    slot.flight = {};
    slot.value = value;
    Ptr previous = std::exchange(s.latest, value);
    s.publish();
    lock.unlock();  // `previous` may be the last holder: free it unlocked
    landed.set_value(value);
    return value;
  }

 private:
  struct Slot {
    std::weak_ptr<Value> value;
    std::shared_future<Ptr> flight;  ///< valid while a build runs
  };
  struct State {
    std::mutex mu;
    std::map<Key, Slot> slots;
    Ptr latest;
    obs::Counter *builds = nullptr, *shares = nullptr;
    obs::Gauge* resident = nullptr;  ///< slots: building, held or latest
    void publish() { if (resident) resident->set(slots.size()); }
    /// A value's last holder let go; a rebuild may have begun since.
    void release(const Key& key) {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = slots.find(key);
      if (it != slots.end() && !it->second.flight.valid() &&
          it->second.value.expired()) {
        slots.erase(it);
        publish();
      }
    }
  };

  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace simprof::support
