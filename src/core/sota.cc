#include "core/sota.h"

namespace semtag::core {

const std::vector<SotaReference>& AllSotaReferences() {
  // Values: SUGG's 0.85 is stated in the paper (Section 5.3). BOOK's AUC is
  // SpoilerNet's published 0.919 [50]. The rest are reconstructed from
  // Figure 5's shape (flagged), anchored on the Figure 11 BERT values.
  static const std::vector<SotaReference>& kRefs =
      *new std::vector<SotaReference>{
          {"SUGG", "F1", 0.85, "[30] OleNet, SemEval 2019 champion", false,
           0.86},
          {"SENT", "F1", 0.66, "[52] Wang et al., MSR 2019", true, 0.57},
          {"PARA", "F1", 0.62, "[52] Wang et al., MSR 2019", true, 0.65},
          {"HOMO", "F1", 0.91, "[61] Zou & Lu, NAACL 2019", true, 0.95},
          {"HETER", "F1", 0.90, "[12] Diao et al., WWW", true, 0.93},
          {"EVAL", "F1", 0.79, "[20] Hua et al., NAACL 2019", true, 0.81},
          {"FACT", "F1", 0.78, "[20] Hua et al., NAACL 2019", true, 0.82},
          {"REF", "F1", 0.90, "[20] Hua et al., NAACL 2019", true, 0.93},
          {"QUOTE", "F1", 0.64, "[20] Hua et al., NAACL 2019", true, 0.66},
          {"ARGUE", "F1", 0.75, "[47] Stab et al., EMNLP 2018", true, 0.78},
          {"SUPPORT", "F1", 0.52, "[47] Stab et al., EMNLP 2018", true,
           0.54},
          {"AGAINST", "F1", 0.60, "[47] Stab et al., EMNLP 2018", true,
           0.62},
          {"FUNNY*", "Accuracy", 0.86, "[35] Morales & Zhai, EMNLP 2017",
           true, 0.82},
          {"TV", "Accuracy", 0.77, "[50] Wan et al., ACL 2019", true, 0.80},
          {"BOOK", "AUC", 0.919, "[50] SpoilerNet, Wan et al., ACL 2019",
           false, 0.85},
      };
  return kRefs;
}

}  // namespace semtag::core
