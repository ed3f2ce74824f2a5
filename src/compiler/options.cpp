#include "compiler/options.hpp"

namespace speedllm::compiler {

CompilerOptions CompilerOptions::SpeedLLM() {
  CompilerOptions o;
  o.name = "SpeedLLM";
  return o;
}

CompilerOptions CompilerOptions::Unoptimized() {
  CompilerOptions o;
  o.enable_pipeline = false;
  o.enable_fusion = false;
  o.enable_memory_reuse = false;
  o.name = "Unoptimized";
  return o;
}

CompilerOptions CompilerOptions::NoFuse() {
  CompilerOptions o;
  o.enable_fusion = false;
  o.name = "NoFuse";
  return o;
}

CompilerOptions CompilerOptions::NoPipeline() {
  CompilerOptions o;
  o.enable_pipeline = false;
  o.name = "NoPipeline";
  return o;
}

CompilerOptions CompilerOptions::NoReuse() {
  CompilerOptions o;
  o.enable_memory_reuse = false;
  o.name = "NoReuse";
  return o;
}

std::vector<CompilerOptions> CompilerOptions::PaperVariants() {
  return {Unoptimized(), NoPipeline(), NoFuse(), SpeedLLM()};
}

}  // namespace speedllm::compiler
