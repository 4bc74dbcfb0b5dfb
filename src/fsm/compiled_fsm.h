#ifndef LEARNEDSQLGEN_FSM_COMPILED_FSM_H_
#define LEARNEDSQLGEN_FSM_COMPILED_FSM_H_

// The compiled FSM table is gone: GenerationFsm derives every mask from the
// partial query (DESIGN.md §6h records why). These declarations exist only
// for the goodput benchmark's set-up probe (perfbench/main.cc), which still
// times and reports a table resolution; it now always resolves to nullptr
// at no cost. Nothing under src/, tools/, tests/ or bench/ includes this
// header. A later change to the benchmark can drop the probe and this file
// together.

#include <memory>
#include <string>

#include "fsm/generation_fsm.h"

namespace lsg {

class CompiledFsmTable;

struct CompileFsmOptions {};

class CompiledFsmCache {
 public:
  static CompiledFsmCache& Global() {
    static CompiledFsmCache cache;
    return cache;
  }

  /// Always nullptr: every FSM is interpreted.
  std::shared_ptr<const CompiledFsmTable> GetOrCompile(
      const Database&, const Vocabulary&, const QueryProfile&,
      const CompileFsmOptions&, const std::string&) {
    return nullptr;
  }
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FSM_COMPILED_FSM_H_
