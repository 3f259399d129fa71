"""Pinned canonical labellings: bytes and vertex order, per input graph.

`canonical_labeling` feeds the witnesses of `are_isomorphic` through its
order, so the order is pinned as well as the encoding.  Each digest is
sha256(encoding + bytes(order)).  To regenerate the table from a trusted
checkout, run `pin_digests()` with that checkout's `src` on the path.
"""

import hashlib
import os

from conftest import FIXTURES, kmm, relabel, rook
from srsg.catalog import build, list_names
from srsg.core import all_positive, negation
from srsg.iso import canonical_labeling
from srsg.sgio import read_graph6_file

TARGETS = (
    "g8", "g9", "gq22", "k333", "k66", "paley13", "s16u", "s1_15u", "s2_12u", "s3_12u",
)
FIXTURE_FILES = ("6reg_order8.g6", "6reg_order9.g6", "6reg_order10.g6")


def pin_inputs():
    """(label, signed graph) for every pinned input, in a fixed order."""
    for name in list_names():
        g = build(name).graph
        yield name, g
        yield "-" + name, negation(g)
    for m in range(2, 13):
        yield f"K{m},{m}", all_positive(kmm(m))
    for m in range(3, 8):
        yield f"rook{m}", all_positive(rook(m))
    for seed in (1, 2, 3):
        yield f"rook6~{seed}", all_positive(relabel(rook(6), seed))
    for name in TARGETS:
        (u,) = read_graph6_file(os.path.join(FIXTURES, "targets", name + ".g6"))
        yield name, all_positive(u)
    for fname in FIXTURE_FILES:
        for i, u in enumerate(read_graph6_file(os.path.join(FIXTURES, fname))):
            yield f"{fname}#{i}", all_positive(u)


def pin_digests():
    out = {}
    for label, g in pin_inputs():
        enc, order = canonical_labeling(g)
        out[label] = hashlib.sha256(enc + bytes(order)).hexdigest()
    return out


PINS = {
    "S1_12": "0b39749f29729f3551808d29a0aba63912ef3f89ae92c358d82a7edfc66c526d",
    "-S1_12": "c60439725e06e92544d40d61e7ef533b114bfcbb3ed0c877482e99c0b6ed7461",
    "S2_12": "34f17407d0a5ca92ffba204652d1d5ebf93d254474cbc7a18df42bfe91fafda3",
    "-S2_12": "5a0b4b2346ccb457ee03649de9a92efcfd1d23558e39cf0d1fc8c3b678501a95",
    "S3_12": "46db3b0dfda823687066d23d2ff71c9bfdfff5af6a056c214f7c090f85e94fa2",
    "-S3_12": "619d5ce84e04eaf4fd1c7bef0b45c6f2947c99d65f11692c26c07464ee35560f",
    "S2_8": "c525016c692b23020277b93152678a43d933b1ee9ecae539bf4126712557a180",
    "-S2_8": "91e27f6f3c76a456758d147ed8801bd7d486559dfaf5391b30fae12f8ed03168",
    "S3_8": "03858f051247b640c5c1c054bdadea5c8a5861ad90585649a54ce60b2b587a53",
    "-S3_8": "e8bdbdce4ad4aa5bdde30e6b5a61dc284feb564ee2220c10115a383e3483257a",
    "S_9": "dcae76ff7076dd70a93e60fee144cee9efd2b57450e1dde8553499dfdeabd4d9",
    "-S_9": "3b53f14ef7def2e8684302951882180ceffff3ce1e644b27911a109f21196f5f",
    "S1_9": "cac68b57a37f8c74b7f2d9347adc48eb7da0b6c2442ab3caf45364128b8fb0c9",
    "-S1_9": "7f3516ea55858db5f4dc72fc2495e9fc8dc3c27a50650b34655f3069e8f2c783",
    "S_15": "bfa4eb9b36678f1a5d9bc6e01bdb960adf6cdc334f8fde4d6139d925b615f022",
    "-S_15": "1d19a1bcaba17431e9676a9999fe08816cafe1b82a22b5daeded12dcd9301cc9",
    "S1_15": "e4f63581a88e0a218d1a4e71d2907497eeb36b4b5e5ca8df2efc65e82ee3471a",
    "-S1_15": "dd72f8aebd2ad91ad201b0643bf327adfe5d19b3203710bb35947ace6ae85448",
    "S4_8": "dba248235bd4678309783c21b92c9717575054b2f392ad857515bffc18d119f6",
    "-S4_8": "f582c5d8cc4521038a68501be3623af03a4ef7fbd414c9cd52f0984279534dc6",
    "S_16": "e22f0683c8a5dc477c77d6e0f1628f5e07257cb47053a3b25ff3b106bc0e752f",
    "-S_16": "9ee98cd158a646b2aa461e26c0e56e1f3d5025bf20bd9e467ab1dbb9bafd017d",
    "K2,2": "a09479a3a35dc786cde973af0e576ac91b5beba719df8d46f4f64535533326eb",
    "K3,3": "47f058f60e20eb887c71a527733d55640cfb09aadfe29870f55fbe3e9d1df90a",
    "K4,4": "5568e6f78bf5b2e2ecc3cc3df8d336def44db81e4dbacf8e2c9721b3a991bb07",
    "K5,5": "008181f90ce49e6458d3720663fd840413dad39fce2efcaf482a344ec6b8da10",
    "K6,6": "c78c6fa6694b03ad789e17db5406bbe89e9ca714efc61e558fd5c6b6c2ca5e27",
    "K7,7": "d362717a249372a3e3fc2c76480c564b7a1fc560fd6ea44066691841dcd111ed",
    "K8,8": "2f5157572cb0f98c7f31185855fd5d43afba7d0cafde90ba4cbadf61be28c580",
    "K9,9": "2fcaeb326654eaf2fdd99b53e51aa0de5db550ba0a786be48f3abe75f09c376e",
    "K10,10": "7670fb8ff47cda5b2b2a86d22ab26a3bda09edb673e3eaa9e2ba394222cc374b",
    "K11,11": "63503732dd25b11107ae784b603bcaf279aea48753ff58e775afb1656d71ebc9",
    "K12,12": "2bc56ab656694b0d629e2c5ea8d2ef52fd564a67974f9d2b1fbb14f7ac8e9db0",
    "rook3": "542678f3f998d6fa218461115be3edff9f736efb3451a8bf8598824a5474dd1d",
    "rook4": "4ae98b1015c25dc3cfc184f0746f4ac42a7307d1b483fff0ed3c450f57faae8e",
    "rook5": "991f3781e9e96afaafce68c2edee2889d8ca3cecb6b9ef8472d8758061a58e37",
    "rook6": "0d63675e5cfb8b4b3cdc31578ca8aaf5ef820a4173e07ca1aff580e3385292d3",
    "rook7": "379b5b5b1d15ffacddd38cf51cb1200af9660b71744f6e7545eaa863e2eb7620",
    "rook6~1": "e4d9f4c5f6ded6a66597b11ec3fc3d2bfb3d951e80de50da533948c82a622d39",
    "rook6~2": "c41304b89ced49efca5b86093d59e1e6c4ea26a0cf5d34738daf4f622d06f59b",
    "rook6~3": "93fd00432211be85a5550c9b77814865fd8c5ff5a74096258fe8f9cc7972867c",
    "g8": "19bf0312b10c38281c4a7efccef02358e6daee4313a21e4843603263d2d71743",
    "g9": "c4cc762af26b0261ed6b3c0c5d7b47a536c6b38b6492b8c9f3f21a0b1f1344f4",
    "gq22": "231c3451daad25ea20366e6e539b84ac5ee12e3954b2aee01c6c124575e4c106",
    "k333": "96dfa243e774f0fe4749c8f4d71e5387a17e0cb8633c3e637a973a451f0180b3",
    "k66": "c78c6fa6694b03ad789e17db5406bbe89e9ca714efc61e558fd5c6b6c2ca5e27",
    "paley13": "b22291fb24dd6b092ecf51081a3a1d6366f755ff10fa0430f87d0b666de11883",
    "s16u": "4ae98b1015c25dc3cfc184f0746f4ac42a7307d1b483fff0ed3c450f57faae8e",
    "s1_15u": "8bf0732a0bacc119fee69284b46c3725e0cc0c9f9b3cd025fbfb30dde9d06624",
    "s2_12u": "beacfd1c522b724630282d4f9535c373d6607872478c39707b9a898f9cb37c33",
    "s3_12u": "dd1c948041aa328a040b9fc0222b35e84b7240147342e01906bf938c67fb8cd7",
    "6reg_order8.g6#0": "58bca84d922f26f452e69e804cd5fbefa9cebfd9ea8a1ca99cd4fc55b8fc9471",
    "6reg_order9.g6#0": "96dfa243e774f0fe4749c8f4d71e5387a17e0cb8633c3e637a973a451f0180b3",
    "6reg_order9.g6#1": "de7fca2927eafe46b7425c3db74fca50a2983ae3f621407c375ba5be85801f55",
    "6reg_order9.g6#2": "389f6daf436a517c5ba7a5f67808d0f0a0d58e9476aeda92b8a857f3030ab239",
    "6reg_order9.g6#3": "41cbb41e02c0cbcea2bc5214927dbc402c8a449182a9e36180b7275de8c12386",
    "6reg_order10.g6#0": "ed6e08f129afa953b1eccd5b96a0fb01e5e1976dc37ae42bef1af39015b29891",
    "6reg_order10.g6#1": "e786ac63f4a8110acd54ef3cabf03672bae892ddc0740481ac670ec45ba5d70b",
    "6reg_order10.g6#2": "5122390a15b8faa46332eb2cfb46db4d79018f52ac00169cc8bbe3d68cb05f32",
    "6reg_order10.g6#3": "018aaf68c6f0b4c2b4b5cd3f736b6ea0af9694e5e8ab47a98e7b03125b65e7a9",
    "6reg_order10.g6#4": "a070e53aeafcea54542bcca43f34999d72fcf3203a2096b7ee2a424cf56b7fab",
    "6reg_order10.g6#5": "f6359b6c42d9edbd4ea9f4a307ab50a56c618cd9a5d23f670cc6082bfcb92276",
    "6reg_order10.g6#6": "f4c7bd6f5a4b182e6eb51fe7c83688597b1fc805b8a8e4645dc37be6ac84a29e",
    "6reg_order10.g6#7": "9401ed62b3ec72a54e5fdc8ed1654faa29ea7173b30912632be78107748df6ef",
    "6reg_order10.g6#8": "dc4465cd3a2f2c563c3d6a77eeb859e64fa10acd6c6b778ba8df7ee173ef4840",
    "6reg_order10.g6#9": "fc3af38c688be3f5f426690ab6c2194add4a6236c8274faac5317b526e34c140",
    "6reg_order10.g6#10": "ead7e3865ccf38c8e5641f6878498c9b20874d5d6eca41b0d664c669eb7bc09a",
    "6reg_order10.g6#11": "21dc14b31d499fa9a12c0de63c8fad7054ac6f4b31ca496f6e52f95ca7f286f0",
    "6reg_order10.g6#12": "0abd940eff8b6bc38a014c1f62cc1911bf0a96dba332ec06a19e4c2ac9a6c677",
    "6reg_order10.g6#13": "a6d6a51ae6a5875a80ed5e0be6cfa97a736cbc781355c234b0be88a7f5ba0cd4",
    "6reg_order10.g6#14": "cb384f4301767ec2722c3cefd2e37d6a0667b03b05b942d6d43f6c314178cf99",
    "6reg_order10.g6#15": "d76c7a60efbd1791b25a16aa22b2bc3fc7515c970c06ec48768fb599f130a2e8",
    "6reg_order10.g6#16": "979a9154ed1e6720e1aa4d4691ff7c9c7edab640e939763cd5c9b5be63225272",
    "6reg_order10.g6#17": "4bc2a5bff8c200e7ea474d37f7d195ebfc1d50658261f565b873af85437534fe",
    "6reg_order10.g6#18": "1d2d8b4a6ea08957f9aa47bbe4938607ff0decc15ea3fc9f91850b0133582e94",
    "6reg_order10.g6#19": "440f653981c7c34117a8273e8caa4ed57d3b5407c2eb69cb704222bf1bb62502",
    "6reg_order10.g6#20": "4964411710f1af45a03cf14ef1c0d0bda21bc21e922c46adf3bbc7425e89dc2a",
}


def test_canonical_labelings_match_pins():
    got = pin_digests()
    assert list(got) == list(PINS)
    changed = [label for label in PINS if got[label] != PINS[label]]
    assert not changed, f"canonical labelling drifted for {changed}"
