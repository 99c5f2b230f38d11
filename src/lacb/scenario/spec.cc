#include "lacb/scenario/spec.h"

#include <cmath>
#include <cstdint>
#include <limits>

namespace lacb::scenario {
namespace {

// JSON numbers are doubles, which hold every integer up to 2^53 exactly.
constexpr uint64_t kMaxJsonInteger = uint64_t{1} << 53;

Result<double> GetNumber(const obs::JsonValue& obj, const char* key,
                         double fallback) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument(std::string("scenario field '") + key +
                                   "' must be a number");
  }
  return v->as_number();
}

// Integer field of type T: the JSON number must be an exact, finite,
// integral value in [0, min(2^digits(T), 2^53)] (2^digits(T) itself
// excluded), so the cast below is exact and defined and ToJson writes the
// value back unchanged.
template <typename T>
Result<T> GetCount(const obs::JsonValue& obj, const char* key, T fallback) {
  LACB_ASSIGN_OR_RETURN(double x,
                        GetNumber(obj, key, static_cast<double>(fallback)));
  const obs::JsonValue* v = obj.Find(key);
  const bool exact = v == nullptr || v->is_exact();
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(exact && std::isfinite(x) && x >= 0.0 && x < limit &&
        x <= static_cast<double>(kMaxJsonInteger) && std::floor(x) == x)) {
    return Status::InvalidArgument(std::string("scenario field '") + key +
                                   "' must be a non-negative integer in "
                                   "range");
  }
  return static_cast<T>(x);
}

Result<bool> GetBool(const obs::JsonValue& obj, const char* key,
                     bool fallback) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument(std::string("scenario field '") + key +
                                   "' must be a bool");
  }
  return v->as_bool();
}

Result<std::vector<double>> GetNumberArray(const obs::JsonValue& obj,
                                           const char* key) {
  std::vector<double> out;
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr) return out;
  if (!v->is_array()) {
    return Status::InvalidArgument(std::string("scenario field '") + key +
                                   "' must be an array");
  }
  for (const obs::JsonValue& item : v->items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument(std::string("scenario field '") + key +
                                     "' must hold numbers");
    }
    out.push_back(item.as_number());
  }
  return out;
}

obs::JsonValue NumberArray(const std::vector<double>& v) {
  obs::JsonValue arr = obs::JsonValue::Array();
  for (double x : v) arr.Append(x);
  return arr;
}

}  // namespace

const char* ChurnKindName(ChurnKind k) {
  switch (k) {
    case ChurnKind::kJoin:
      return "join";
    case ChurnKind::kLeave:
      return "leave";
    case ChurnKind::kFail:
      return "fail";
  }
  return "unknown";
}

Status ScenarioSpec::Validate() const {
  if (version != 1) {
    return Status::InvalidArgument("unsupported scenario spec version");
  }
  if (seed > kMaxJsonInteger) {
    // Past 2^53 the JSON form would round the seed to another scenario.
    return Status::InvalidArgument("scenario field 'seed' must be <= 2^53");
  }
  for (const ChurnEvent& ev : churn) {
    if (ev.cold_capacity < 0.0) {
      return Status::InvalidArgument("churn cold_capacity must be >= 0");
    }
    if (ev.kind != ChurnKind::kJoin && ev.cold_capacity != 0.0) {
      return Status::InvalidArgument(
          "cold_capacity only applies to join events");
    }
  }
  const StochasticChurn& st = stochastic;
  if (st.join_rate < 0.0 || st.leave_rate < 0.0 || st.fail_rate < 0.0) {
    return Status::InvalidArgument("stochastic churn rates must be >= 0");
  }
  if (st.join_pool_fraction < 0.0 || st.join_pool_fraction >= 1.0) {
    return Status::InvalidArgument("join_pool_fraction must be in [0, 1)");
  }
  if (st.join_rate > 0.0 && st.join_pool_fraction == 0.0) {
    return Status::InvalidArgument(
        "stochastic joins require a join pool (join_pool_fraction > 0)");
  }
  const ArrivalShape& ar = arrivals;
  if (!ar.day_of_week.empty() && ar.day_of_week.size() != 7) {
    return Status::InvalidArgument("day_of_week must have exactly 7 entries");
  }
  for (double m : ar.day_of_week) {
    if (!(m > 0.0) || !std::isfinite(m)) {
      return Status::InvalidArgument("day_of_week multipliers must be > 0");
    }
  }
  for (double w : ar.diurnal) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument("diurnal weights must be > 0");
    }
  }
  for (const FlashWindow& fw : ar.flash) {
    if (!(fw.length_fraction > 0.0)) {
      return Status::InvalidArgument(
          "flash window length_fraction must be > 0 (zero-length windows "
          "are rejected, not ignored)");
    }
    // Negated form so a NaN start (which compares false both ways) is
    // rejected instead of silently never firing.
    if (!(fw.start_fraction >= 0.0 && fw.start_fraction < 1.0)) {
      return Status::InvalidArgument(
          "flash window start_fraction must be in [0, 1)");
    }
    if (fw.start_fraction + fw.length_fraction > 1.0) {
      return Status::InvalidArgument(
          "flash window must not extend past the end of the day");
    }
    if (!(fw.multiplier > 0.0)) {
      return Status::InvalidArgument("flash window multiplier must be > 0");
    }
    if (fw.period > 0 && fw.phase >= fw.period) {
      return Status::InvalidArgument("flash window phase must be < period");
    }
  }
  if (ar.pareto_shape != 0.0 && !(ar.pareto_shape > 1.0)) {
    return Status::InvalidArgument(
        "pareto_shape must be > 1 (finite mean) or 0 to disable");
  }
  if (two_sided.enabled) {
    if (two_sided.tightness < 0.0 || two_sided.tightness >= 1.0) {
      return Status::InvalidArgument("two_sided tightness must be in [0, 1)");
    }
    if (two_sided.max_limit < 1) {
      return Status::InvalidArgument("two_sided max_limit must be >= 1");
    }
  }
  return Status::OK();
}

obs::JsonValue ScenarioSpec::ToJson() const {
  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("version", version);
  root.Set("seed", seed);

  obs::JsonValue churn_arr = obs::JsonValue::Array();
  for (const ChurnEvent& ev : churn) {
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("day", static_cast<uint64_t>(ev.day));
    e.Set("batch_offset", static_cast<uint64_t>(ev.batch_offset));
    e.Set("broker", static_cast<uint64_t>(ev.broker));
    e.Set("kind", ChurnKindName(ev.kind));
    if (ev.kind == ChurnKind::kJoin) e.Set("cold_capacity", ev.cold_capacity);
    churn_arr.Append(std::move(e));
  }
  root.Set("churn", std::move(churn_arr));

  obs::JsonValue st = obs::JsonValue::Object();
  st.Set("join_rate", stochastic.join_rate);
  st.Set("leave_rate", stochastic.leave_rate);
  st.Set("fail_rate", stochastic.fail_rate);
  st.Set("join_pool_fraction", stochastic.join_pool_fraction);
  root.Set("stochastic", std::move(st));

  obs::JsonValue ar = obs::JsonValue::Object();
  ar.Set("day_of_week", NumberArray(arrivals.day_of_week));
  ar.Set("diurnal", NumberArray(arrivals.diurnal));
  obs::JsonValue flash = obs::JsonValue::Array();
  for (const FlashWindow& fw : arrivals.flash) {
    obs::JsonValue f = obs::JsonValue::Object();
    f.Set("start_fraction", fw.start_fraction);
    f.Set("length_fraction", fw.length_fraction);
    f.Set("multiplier", fw.multiplier);
    f.Set("period", static_cast<uint64_t>(fw.period));
    f.Set("phase", static_cast<uint64_t>(fw.phase));
    flash.Append(std::move(f));
  }
  ar.Set("flash", std::move(flash));
  ar.Set("pareto_shape", arrivals.pareto_shape);
  root.Set("arrivals", std::move(ar));

  obs::JsonValue ts = obs::JsonValue::Object();
  ts.Set("enabled", two_sided.enabled);
  ts.Set("tightness", two_sided.tightness);
  ts.Set("max_limit", two_sided.max_limit);
  ts.Set("backend",
         two_sided.backend == TwoSidedBackend::kExact ? "exact" : "approx");
  root.Set("two_sided", std::move(ts));
  return root;
}

Result<ScenarioSpec> ScenarioSpec::FromJson(const obs::JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("scenario spec must be a JSON object");
  }
  ScenarioSpec spec;
  LACB_ASSIGN_OR_RETURN(spec.version, GetCount<int64_t>(v, "version", 1));
  LACB_ASSIGN_OR_RETURN(spec.seed, GetCount<uint64_t>(v, "seed", 1));

  if (const obs::JsonValue* churn = v.Find("churn"); churn != nullptr) {
    if (!churn->is_array()) {
      return Status::InvalidArgument("scenario 'churn' must be an array");
    }
    for (const obs::JsonValue& e : churn->items()) {
      if (!e.is_object()) {
        return Status::InvalidArgument("churn events must be objects");
      }
      ChurnEvent ev;
      LACB_ASSIGN_OR_RETURN(ev.day, GetCount<size_t>(e, "day", 0));
      LACB_ASSIGN_OR_RETURN(ev.batch_offset,
                            GetCount<size_t>(e, "batch_offset", 0));
      LACB_ASSIGN_OR_RETURN(ev.broker, GetCount<size_t>(e, "broker", 0));
      LACB_ASSIGN_OR_RETURN(double cold, GetNumber(e, "cold_capacity", 0.0));
      ev.cold_capacity = cold;
      const obs::JsonValue* kind = e.Find("kind");
      if (kind == nullptr || !kind->is_string()) {
        return Status::InvalidArgument("churn event needs a string 'kind'");
      }
      const std::string& k = kind->as_string();
      if (k == "join") {
        ev.kind = ChurnKind::kJoin;
      } else if (k == "leave") {
        ev.kind = ChurnKind::kLeave;
      } else if (k == "fail") {
        ev.kind = ChurnKind::kFail;
      } else {
        return Status::InvalidArgument("unknown churn kind: " + k);
      }
      spec.churn.push_back(ev);
    }
  }

  if (const obs::JsonValue* st = v.Find("stochastic"); st != nullptr) {
    if (!st->is_object()) {
      return Status::InvalidArgument("scenario 'stochastic' must be an object");
    }
    LACB_ASSIGN_OR_RETURN(spec.stochastic.join_rate,
                          GetNumber(*st, "join_rate", 0.0));
    LACB_ASSIGN_OR_RETURN(spec.stochastic.leave_rate,
                          GetNumber(*st, "leave_rate", 0.0));
    LACB_ASSIGN_OR_RETURN(spec.stochastic.fail_rate,
                          GetNumber(*st, "fail_rate", 0.0));
    LACB_ASSIGN_OR_RETURN(spec.stochastic.join_pool_fraction,
                          GetNumber(*st, "join_pool_fraction", 0.0));
  }

  if (const obs::JsonValue* ar = v.Find("arrivals"); ar != nullptr) {
    if (!ar->is_object()) {
      return Status::InvalidArgument("scenario 'arrivals' must be an object");
    }
    LACB_ASSIGN_OR_RETURN(spec.arrivals.day_of_week,
                          GetNumberArray(*ar, "day_of_week"));
    LACB_ASSIGN_OR_RETURN(spec.arrivals.diurnal,
                          GetNumberArray(*ar, "diurnal"));
    LACB_ASSIGN_OR_RETURN(spec.arrivals.pareto_shape,
                          GetNumber(*ar, "pareto_shape", 0.0));
    if (const obs::JsonValue* flash = ar->Find("flash"); flash != nullptr) {
      if (!flash->is_array()) {
        return Status::InvalidArgument("arrivals 'flash' must be an array");
      }
      for (const obs::JsonValue& f : flash->items()) {
        if (!f.is_object()) {
          return Status::InvalidArgument("flash windows must be objects");
        }
        FlashWindow fw;
        LACB_ASSIGN_OR_RETURN(fw.start_fraction,
                              GetNumber(f, "start_fraction", 0.0));
        LACB_ASSIGN_OR_RETURN(fw.length_fraction,
                              GetNumber(f, "length_fraction", 0.0));
        LACB_ASSIGN_OR_RETURN(fw.multiplier, GetNumber(f, "multiplier", 1.0));
        LACB_ASSIGN_OR_RETURN(fw.period, GetCount<size_t>(f, "period", 0));
        LACB_ASSIGN_OR_RETURN(fw.phase, GetCount<size_t>(f, "phase", 0));
        spec.arrivals.flash.push_back(fw);
      }
    }
  }

  if (const obs::JsonValue* ts = v.Find("two_sided"); ts != nullptr) {
    if (!ts->is_object()) {
      return Status::InvalidArgument("scenario 'two_sided' must be an object");
    }
    LACB_ASSIGN_OR_RETURN(spec.two_sided.enabled,
                          GetBool(*ts, "enabled", false));
    LACB_ASSIGN_OR_RETURN(spec.two_sided.tightness,
                          GetNumber(*ts, "tightness", 0.0));
    LACB_ASSIGN_OR_RETURN(spec.two_sided.max_limit,
                          GetCount<int64_t>(*ts, "max_limit", 1));
    if (const obs::JsonValue* backend = ts->Find("backend");
        backend != nullptr) {
      if (!backend->is_string()) {
        return Status::InvalidArgument("two_sided 'backend' must be a string");
      }
      const std::string& b = backend->as_string();
      if (b == "exact") {
        spec.two_sided.backend = TwoSidedBackend::kExact;
      } else if (b == "approx") {
        spec.two_sided.backend = TwoSidedBackend::kApprox;
      } else {
        return Status::InvalidArgument("unknown two_sided backend: " + b);
      }
    }
  }

  LACB_RETURN_NOT_OK(spec.Validate());
  return spec;
}

std::string ScenarioSpec::Serialize() const { return ToJson().ToString(2); }

Result<ScenarioSpec> ScenarioSpec::Parse(const std::string& text) {
  LACB_ASSIGN_OR_RETURN(obs::JsonValue v, obs::JsonValue::Parse(text));
  return FromJson(v);
}

}  // namespace lacb::scenario
