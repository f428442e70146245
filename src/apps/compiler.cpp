#include "apps/compiler.hpp"

namespace optdm::apps {

CommCompiler::CommCompiler(const topo::TorusNetwork& net)
    : net_(&net), aapc_(std::make_unique<aapc::TorusAapc>(net)) {}

CompiledPhase CommCompiler::compile(const core::RequestSet& pattern,
                                    obs::SchedCounters* counters) const {
  auto [schedule, winner, lower_bound] =
      sched::combined_with_winner(*aapc_, pattern, counters);
  return CompiledPhase{std::move(schedule), winner, lower_bound};
}

sim::CompiledResult CommCompiler::execute(
    const CommPhase& phase, const sim::CompiledParams& params) const {
  const auto compiled = compile(phase.pattern());
  return sim::simulate_compiled(compiled.schedule, phase.messages, params);
}

}  // namespace optdm::apps
