"""Golden output of the commands that print floating-point sweeps.

``sigmap`` and ``report`` classify Hermitian forms by their eigenvalues,
so their bytes rest on the form assembly, the inertia code and the
writers.  Each case pins the exit code, the SHA-256 digest of stdout
followed by the bytes written to ``--out``, and the literal stderr, so a
change in a classification, a certification, a turn string or the order of
rows shows here.  CSV goes to stdout, JSON and PPM (for two colors) through
``--out``.
"""

import contextlib
import hashlib
import io
import os

import pytest

from linksig import catalog
from linksig.cli import main

KEYS = [key for key in [*catalog.list_keys(), "l(4)"]
        if catalog.get(key).link is not None and catalog.get(key).link.has_seifert()]
TAUS = ("1e-9", "0.0625")

# case -> (exit code, SHA-256 of stdout + --out, stderr)
GOLDEN = {
    'sigmap hopf1 1e-9 csv 5 plain': (0, '1c7fb80b9735311dfc113d195b9ff2e76b73f94ad3d7b09df9c6c4bf2cb57a3f', ''),
    'sigmap hopf1 1e-9 csv 5 faces': (0, '507fa2c7ceb97c9897393bb185843b0392db3925281a8398c9d419e845542a15', ''),
    'sigmap hopf1 1e-9 csv 7 plain': (0, 'f22119a834f8ee81eb7078ed960bed045eba11fdea6e65ace58931e4757b5ea8', ''),
    'sigmap hopf1 1e-9 csv 7 faces': (0, '9c45193acd35c92cc4a9fd7e296e86f688a3563e04a1b5c04108a4a58fb7bb4d', ''),
    'sigmap hopf1 1e-9 csv 12 plain': (0, '9ef9364c4f6693914151265cfbc10c7cefe4e17fd86247d1ae07a9c66f2ed8bc', ''),
    'sigmap hopf1 1e-9 csv 12 faces': (0, '7c21f3ed6b627211973f25f2847ee15043e83967c6435cdef89edf714c635b86', ''),
    'sigmap hopf1 1e-9 json 5 plain': (0, '448ac8785c24090dad977f7e8fae65466e5fa4770664e3d50d17594fa0f87744', ''),
    'sigmap hopf1 1e-9 json 5 faces': (0, '93298b82d258eb224005e5a5b6069fa510100fd664e70bf872f812db17842d56', ''),
    'sigmap hopf1 1e-9 json 7 plain': (0, '956ff20fe533938c7cf740b0b77dc70c327ea1f24e77fdc4e998281aff581c23', ''),
    'sigmap hopf1 1e-9 json 7 faces': (0, 'a31774132aa231bb6b39696496fa57325e24f6ae4be178910ae7bbf8ddfc750c', ''),
    'sigmap hopf1 1e-9 json 12 plain': (0, '4348b238e02f20dc49abdc9dcfd856bea002db94d120747a9af6f8a640544b05', ''),
    'sigmap hopf1 1e-9 json 12 faces': (0, '3a25374e6bdbd1dd670dffe0afebc96c5dae8f3cd00db38a3eac32d1e36e23ad', ''),
    'sigmap hopf1 0.0625 csv 5 plain': (3, 'fb3450219c17d5e10ee91d5fdd0ccf7ac8627c0859b778240c7104736f987918', ''),
    'sigmap hopf1 0.0625 csv 5 faces': (3, '32f7609d177b3fd1c2e2f70826b40643eb94ff285e6500e15a472034fa07f56e', ''),
    'sigmap hopf1 0.0625 csv 7 plain': (3, 'f2ab8628471b16e9205cd2049281217ba79fdc6135645d836900e6a007ca1a0a', ''),
    'sigmap hopf1 0.0625 csv 7 faces': (3, '6478c36575afa1f559b92358a27d4768fca0cdd3b6b200b306f5be9dbfb6c1c7', ''),
    'sigmap hopf1 0.0625 csv 12 plain': (3, '2e5e9e2906c6559381f17d8b5d807b37001884001cf5f3d735a40b0674073210', ''),
    'sigmap hopf1 0.0625 csv 12 faces': (3, '90d7e9330138d8a96b641e4a2a6b33663b4075341856732ca1e4560d94e12c68', ''),
    'sigmap hopf1 0.0625 json 5 plain': (3, '816729f4d63856896c31d6b9d98bc135b89a2b0050563673a44fdf53c0669ff5', ''),
    'sigmap hopf1 0.0625 json 5 faces': (3, '1d45982186a166e80f90822cb368335fef0524fc6463f2dd9b8d994984c2d801', ''),
    'sigmap hopf1 0.0625 json 7 plain': (3, '8ddca055dd5e3de1ee4ee60059bd12783cfeea5bb7bbfc1aa473eff0de186c34', ''),
    'sigmap hopf1 0.0625 json 7 faces': (3, '3d525136eb9d643e71b722f537ce4a485fd76f8281462939093f9da0d39d2b89', ''),
    'sigmap hopf1 0.0625 json 12 plain': (3, 'f4d21d046f1d19248012039a86f947c4292a92fd4e00b2446619959b805df36a', ''),
    'sigmap hopf1 0.0625 json 12 faces': (3, '2b0dde78a886bff0d2c4f2fef2a5d63a0e245175796c8ee5c1b7abd59637722a', ''),
    'report hopf1 2 2 plain': (0, '3dd2414f69e51c438c7266056fab174a64bb37a4253f3877139e254bef677399', ''),
    'report hopf1 3 2 plain': (0, '3fa2f32ade149ed21b92faee265844e01e6390f759c762b5038dcb7fb9f70dac', ''),
    'report hopf1 5 1 plain': (0, 'e0928dbbfc48d0d1f6dd92ab0b118a9bc3ba9a04a9e1f408538b9da28a7eadb9', ''),
    'sigmap hopf2 1e-9 csv 5 plain': (0, '283eb4a9b8cc16c82616e3585d8b113ed658f4df120ab897edbe65e799281de4', ''),
    'sigmap hopf2 1e-9 csv 5 faces': (0, 'a9a3442cd54b9169b85b93c72d8d760d8142eb474bd9499a1406ec8c6b6ac553', ''),
    'sigmap hopf2 1e-9 csv 7 plain': (0, 'b5e70384ca0a0fb0ccbd5cc57f4c0ac8cf931e8c2ad175d210910e1e3a15b54c', ''),
    'sigmap hopf2 1e-9 csv 7 faces': (0, 'a0ec4e0ddbcc08b439d1ab6734d8a578833f34b74606ec375707fd1a3acd8007', ''),
    'sigmap hopf2 1e-9 csv 12 plain': (0, '1c959f3244103b3e38781a7bb68d3d55a79a69523e059547c57ea875cad6c5a2', ''),
    'sigmap hopf2 1e-9 csv 12 faces': (0, 'e94efeeec4fd4c16fb18ad25ae3493fab96b6009d073b14ed0faceeda5cbfa5f', ''),
    'sigmap hopf2 1e-9 json 5 plain': (0, 'cdd5c7f6038c983c88ef3174053d2e45c17105e03701110f8eedc81efad06752', ''),
    'sigmap hopf2 1e-9 json 5 faces': (0, '098045f171f200de47f949447ceb655c97265bc248aa14f9b47dd8e1f20aca3c', ''),
    'sigmap hopf2 1e-9 json 7 plain': (0, '86a7dae41ac4013ea8db0b234c17f553dbd9ba8b286b93b305d106a966c2083c', ''),
    'sigmap hopf2 1e-9 json 7 faces': (0, '13cf04833653b561d853a8d465b14584357627acd9250b178e8296d3a2d31bf2', ''),
    'sigmap hopf2 1e-9 json 12 plain': (0, '2b1ac7537e3f0a75259064b4bd7ea6a74c1d56f5baa0c0491be2348a17ac945d', ''),
    'sigmap hopf2 1e-9 json 12 faces': (0, '8de51feebc2351e961ef21c12a8da500fd5e2f36546a2d9dfb4e89c121f8c149', ''),
    'sigmap hopf2 1e-9 ppm 5 plain': (0, '4b4816b78ff846db4d913a935e905791d1dbdc693cc8532615422da6f3987792', ''),
    'sigmap hopf2 1e-9 ppm 5 faces': (0, '1e952549e508ee7ba92b8943a19d4ad94ead3ac73f60c713bf33f96128a09841', ''),
    'sigmap hopf2 1e-9 ppm 7 plain': (0, 'c479cbe5dfa203aa77ff80938a3368511ea1dafe9e910b5540e6552d1ea06a46', ''),
    'sigmap hopf2 1e-9 ppm 7 faces': (0, '2cf2d6fa0cf8a38f1d918f34b91b00c6f135bfb52c30e164a102ca572eeaa196', ''),
    'sigmap hopf2 1e-9 ppm 12 plain': (0, 'dda36e0cbab5bb1558b007db9f122c337c6db7aa9ccedaedfd2daf9c8f3c5f37', ''),
    'sigmap hopf2 1e-9 ppm 12 faces': (0, '2a4749ac529bfcf2362926d2c1f2fdc69b2ce6019f66716a7465bd0111cc3106', ''),
    'sigmap hopf2 0.0625 csv 5 plain': (0, '283eb4a9b8cc16c82616e3585d8b113ed658f4df120ab897edbe65e799281de4', ''),
    'sigmap hopf2 0.0625 csv 5 faces': (0, 'a9a3442cd54b9169b85b93c72d8d760d8142eb474bd9499a1406ec8c6b6ac553', ''),
    'sigmap hopf2 0.0625 csv 7 plain': (0, 'b5e70384ca0a0fb0ccbd5cc57f4c0ac8cf931e8c2ad175d210910e1e3a15b54c', ''),
    'sigmap hopf2 0.0625 csv 7 faces': (0, 'a0ec4e0ddbcc08b439d1ab6734d8a578833f34b74606ec375707fd1a3acd8007', ''),
    'sigmap hopf2 0.0625 csv 12 plain': (0, '1c959f3244103b3e38781a7bb68d3d55a79a69523e059547c57ea875cad6c5a2', ''),
    'sigmap hopf2 0.0625 csv 12 faces': (0, 'e94efeeec4fd4c16fb18ad25ae3493fab96b6009d073b14ed0faceeda5cbfa5f', ''),
    'sigmap hopf2 0.0625 json 5 plain': (0, 'cdd5c7f6038c983c88ef3174053d2e45c17105e03701110f8eedc81efad06752', ''),
    'sigmap hopf2 0.0625 json 5 faces': (0, '098045f171f200de47f949447ceb655c97265bc248aa14f9b47dd8e1f20aca3c', ''),
    'sigmap hopf2 0.0625 json 7 plain': (0, '86a7dae41ac4013ea8db0b234c17f553dbd9ba8b286b93b305d106a966c2083c', ''),
    'sigmap hopf2 0.0625 json 7 faces': (0, '13cf04833653b561d853a8d465b14584357627acd9250b178e8296d3a2d31bf2', ''),
    'sigmap hopf2 0.0625 json 12 plain': (0, '2b1ac7537e3f0a75259064b4bd7ea6a74c1d56f5baa0c0491be2348a17ac945d', ''),
    'sigmap hopf2 0.0625 json 12 faces': (0, '8de51feebc2351e961ef21c12a8da500fd5e2f36546a2d9dfb4e89c121f8c149', ''),
    'sigmap hopf2 0.0625 ppm 5 plain': (0, '4b4816b78ff846db4d913a935e905791d1dbdc693cc8532615422da6f3987792', ''),
    'sigmap hopf2 0.0625 ppm 5 faces': (0, '1e952549e508ee7ba92b8943a19d4ad94ead3ac73f60c713bf33f96128a09841', ''),
    'sigmap hopf2 0.0625 ppm 7 plain': (0, 'c479cbe5dfa203aa77ff80938a3368511ea1dafe9e910b5540e6552d1ea06a46', ''),
    'sigmap hopf2 0.0625 ppm 7 faces': (0, '2cf2d6fa0cf8a38f1d918f34b91b00c6f135bfb52c30e164a102ca572eeaa196', ''),
    'sigmap hopf2 0.0625 ppm 12 plain': (0, 'dda36e0cbab5bb1558b007db9f122c337c6db7aa9ccedaedfd2daf9c8f3c5f37', ''),
    'sigmap hopf2 0.0625 ppm 12 faces': (0, '2a4749ac529bfcf2362926d2c1f2fdc69b2ce6019f66716a7465bd0111cc3106', ''),
    'report hopf2 2 2 plain': (0, '4fc72dd1abfd22d86c0ca4c822afe152c35c480e9d0b2e05d4d36484ec268700', ''),
    'report hopf2 3 2 plain': (0, '84099e7d835fd797634541b0b536ca3a0cd68e1b785acd787cd5b8f0f404ead0', ''),
    'report hopf2 5 1 plain': (0, 'af2aec3d53f2e1991c3460303549ad38aa28de2ebe16a06745808748f41c1793', ''),
    'sigmap t24 1e-9 csv 5 plain': (0, '693dc31269d132c1c037793f19f1146920a69d451754ce81f30c4e52b6ffaa10', ''),
    'sigmap t24 1e-9 csv 5 faces': (0, '93355909fcf831b59a021dabb8575f5be4e5debfa304b8ade3e7441452836546', ''),
    'sigmap t24 1e-9 csv 7 plain': (0, 'c660f5ab01f6f280b795d03600ee47f70d8c9690dc8064fa5f347ae666db3020', ''),
    'sigmap t24 1e-9 csv 7 faces': (0, '2d714fc1bde770c8d43d73190505947579027788f2ea267dad4f7fbecceb30c1', ''),
    'sigmap t24 1e-9 csv 12 plain': (0, 'e3527e6895619659b6c17b7fcd7c36c20af0bde8d75cf4792fd71b7718cb61c1', ''),
    'sigmap t24 1e-9 csv 12 faces': (0, 'f2e31d1a23a5f953a7ccb4319e791638b82313049d26dc5d6e36615a5ef49116', ''),
    'sigmap t24 1e-9 json 5 plain': (0, '9de1ee5502a814746bbf33e787e48f82d9a28b51ca873bf53ef603bf4b0d9320', ''),
    'sigmap t24 1e-9 json 5 faces': (0, '23c5d0b648ef771f2039bb69c8e7bb68145cb51a2fae1a747e09926f76965a09', ''),
    'sigmap t24 1e-9 json 7 plain': (0, '21abdf9db85fa708be2cc4976796400413baf9ac902c5e640d51e4df0e4a0c26', ''),
    'sigmap t24 1e-9 json 7 faces': (0, '65bb7283b9ebd5f2776c88f8b2fffab6ae98652b8ca1baa226e977d138f3d586', ''),
    'sigmap t24 1e-9 json 12 plain': (0, '37326a81132f201da19d4e13302ba64f05f6961f55a5e1a3ea5f8370a1c57b7c', ''),
    'sigmap t24 1e-9 json 12 faces': (0, '0902bf079b8e58ce487259555a7467a0da38043ebbe6a4424a18fcaa2942a4dc', ''),
    'sigmap t24 1e-9 ppm 5 plain': (0, '84d444751d25b405762f8df1a2379d94f4f7ca46a9f09848fb34c24055ae67be', ''),
    'sigmap t24 1e-9 ppm 5 faces': (0, '9ecb673da3c8748ca410ee1775fdd7f13a0252dec1fb043c9adb1fc30ff66e65', ''),
    'sigmap t24 1e-9 ppm 7 plain': (0, 'b0b0187ae08f7554cf55ad35980a30fe8aef52cb36db4908b401c5bfed813b9e', ''),
    'sigmap t24 1e-9 ppm 7 faces': (0, '433bbe14ba8f048483c5f22b19f2533e099d4de3f50efe2ea2908fb3ddae0979', ''),
    'sigmap t24 1e-9 ppm 12 plain': (0, '3c2c1ef5d3d8e0b235c501ccb264a05d177f5b34ea3f8dd091efd1cafdbd3583', ''),
    'sigmap t24 1e-9 ppm 12 faces': (0, 'd96d05ce365038c5be39fb36128db9432fb4328ac00bed58410b61e7af81705f', ''),
    'sigmap t24 0.0625 csv 5 plain': (3, 'a9734663ecf0257282f2fed5ffcf7dbe112e1da7a4bbab8d2f33ac2fbe5a23ca', ''),
    'sigmap t24 0.0625 csv 5 faces': (3, 'aad2c4535b9ab61d9524065ee8b878e2bcf2ca576721f86115b25397894083ab', ''),
    'sigmap t24 0.0625 csv 7 plain': (3, '4ba2e1e32fbd04748ff79ad0bdc8dbe73aea1742344b3bd8bb9075c303098c04', ''),
    'sigmap t24 0.0625 csv 7 faces': (3, 'de51690bb3ed4dc91ebaa13f7995d840892a4b366442275ea975c4fcf2e4eb8c', ''),
    'sigmap t24 0.0625 csv 12 plain': (3, 'da819ffec496f3c18a3c38f4583d170e57912b48a225531d4508b89b282f4e59', ''),
    'sigmap t24 0.0625 csv 12 faces': (3, 'bc11836cdd42e5568b2539f91e46f820ef4e47d511061f6aa7091df1512c0c73', ''),
    'sigmap t24 0.0625 json 5 plain': (3, 'aacb54a26b0adc77e1fe65fe85a25f2c61950a46e7f547d2e78cbdef6cfe6677', ''),
    'sigmap t24 0.0625 json 5 faces': (3, '69f7892c8774acd20ccd0be12a68b1e8218dfca0cb25878e03f25797712666a1', ''),
    'sigmap t24 0.0625 json 7 plain': (3, '7f3a13e134d55d60802cd19ba6d7178a6ab646e554e9af7cafc3801c710df014', ''),
    'sigmap t24 0.0625 json 7 faces': (3, '5b7f154bd33e4cea797c83ec0982e75993fa356ff157a50293e9aff9f85197d1', ''),
    'sigmap t24 0.0625 json 12 plain': (3, '85bbaedbef2c793df41ae5f1ad6c1978299b9de1e80e9b9bce5d9467f19a811f', ''),
    'sigmap t24 0.0625 json 12 faces': (3, '2024750230ba862b25faff1dd1140b8f0c02f15fb87ce530cd8e843cb37f606c', ''),
    'sigmap t24 0.0625 ppm 5 plain': (3, '0c52c3cb8943a91ab843a464b9a520863b1ea71daf4fffc3c106f67a8a0f0dfc', ''),
    'sigmap t24 0.0625 ppm 5 faces': (3, 'a5e7be454c99953ab8daac277d94fd473fa25b25affcb089b75d6526cf212666', ''),
    'sigmap t24 0.0625 ppm 7 plain': (3, '80585ed75b7e3c1e07673626222e1d6432628c2dd322811f22e9e2063856f98a', ''),
    'sigmap t24 0.0625 ppm 7 faces': (3, '5cdd164856ce8b63e1d56bfb98ec2e408ed1397ab8c1b1588546d539b9bea0a4', ''),
    'sigmap t24 0.0625 ppm 12 plain': (3, '5fd869caae4ff15dfbcd841a82f08b339b08d6940883f53d84f060b4f2506ec7', ''),
    'sigmap t24 0.0625 ppm 12 faces': (3, '4258f1cb6d905b5db6c2df506bc42aa81945521e501ed113002c5d973d48f7a8', ''),
    'report t24 2 2 plain': (0, '645204e4ec0e5f35d45a1fc377d788543e060fba5af7480dca24242014b70e74', ''),
    'report t24 3 2 plain': (0, 'df480d0bb27e37231f4821e77ab5b1955b1312428b289106c357c94184c85db5', ''),
    'report t24 5 1 plain': (0, '9418e235a40624227572a2383b3711c69ae5c795564cb1ad8c0fcde2481bb4bf', ''),
    'sigmap l(1) 1e-9 csv 5 plain': (0, '487db95a0ae0e7ff1c3ece72826d60c330d8c7a3b34fcae499810e1fecc71e6b', ''),
    'sigmap l(1) 1e-9 csv 5 faces': (0, '96fb29d784d8238f3beb447350799ee99a8df5972d6f7304a9e6fb7c4d6339e9', ''),
    'sigmap l(1) 1e-9 csv 5 slope': (0, '487db95a0ae0e7ff1c3ece72826d60c330d8c7a3b34fcae499810e1fecc71e6b', ''),
    'sigmap l(1) 1e-9 csv 5 faces+slope': (0, '1169799e515835869801b1d0192f60aee8e67ef334e8f94b51a5efddd00bb4e1', ''),
    'sigmap l(1) 1e-9 csv 7 plain': (0, 'ae05affd21b8f3f972a81c0d057cae3260e5939c82b0da2bc375222bc313fa16', ''),
    'sigmap l(1) 1e-9 csv 7 faces': (0, '5428986c1275522c8651711070b204753de209130015836d17339e05c3529f6a', ''),
    'sigmap l(1) 1e-9 csv 7 slope': (0, 'ae05affd21b8f3f972a81c0d057cae3260e5939c82b0da2bc375222bc313fa16', ''),
    'sigmap l(1) 1e-9 csv 7 faces+slope': (0, 'a4994ac022ae3188c2c3ac2eb897ea762b4b6247b6470230e8f337fd6c4bca7f', ''),
    'sigmap l(1) 1e-9 json 5 plain': (0, 'b2ae5be0405911d55cbf49bdc1fedd965cfe48dda0ba6b987c7fda0df6d11c09', ''),
    'sigmap l(1) 1e-9 json 5 faces': (0, '365283225a4260c15dd09a529beb07d1689e3d42d349b3a5dd449515eeb32241', ''),
    'sigmap l(1) 1e-9 json 5 slope': (0, 'b2ae5be0405911d55cbf49bdc1fedd965cfe48dda0ba6b987c7fda0df6d11c09', ''),
    'sigmap l(1) 1e-9 json 5 faces+slope': (0, '0debfc965515a2c7192f100645d9c2a86e257716b3fdedf4358bae28cf3eff61', ''),
    'sigmap l(1) 1e-9 json 7 plain': (0, '6c0490316af93d0e83d64c4b5cab5e92399dccf68e127b5480b0512962d56097', ''),
    'sigmap l(1) 1e-9 json 7 faces': (0, 'dd8d1442e8d110039885f344603504144cd3abe770a2e1da200691db2bcda5a0', ''),
    'sigmap l(1) 1e-9 json 7 slope': (0, '6c0490316af93d0e83d64c4b5cab5e92399dccf68e127b5480b0512962d56097', ''),
    'sigmap l(1) 1e-9 json 7 faces+slope': (0, '83fea3abf8aba1d3d9ad160fc3a899a68e672f19dd45ebf9094d9ce46526b105', ''),
    'sigmap l(1) 0.0625 csv 5 plain': (3, '1bc7800be9b7651e4d5f749127ee3555353966c4c39cf58eec654521020750fe', ''),
    'sigmap l(1) 0.0625 csv 5 faces': (3, 'e98e73b65dac612478d4257cb1ab362103a2476b14942786ce4b768cb3f91868', ''),
    'sigmap l(1) 0.0625 csv 5 slope': (3, '1bc7800be9b7651e4d5f749127ee3555353966c4c39cf58eec654521020750fe', ''),
    'sigmap l(1) 0.0625 csv 5 faces+slope': (3, '0e92bbed5e61cbf423a48d618473bd3816845f1919a1f9ce57c1d7e7c7cc5c31', ''),
    'sigmap l(1) 0.0625 csv 7 plain': (3, '31ea642a7b70df8b97c50bcb4319f510908b9d6ad58ea21541dfffb1a05e69a1', ''),
    'sigmap l(1) 0.0625 csv 7 faces': (3, '07819483f65fdee8ff03bb832e85255b44e59870e21077f80f6d7ccc3aeb0c1e', ''),
    'sigmap l(1) 0.0625 csv 7 slope': (3, '31ea642a7b70df8b97c50bcb4319f510908b9d6ad58ea21541dfffb1a05e69a1', ''),
    'sigmap l(1) 0.0625 csv 7 faces+slope': (3, '5e4a42c994fd95d970a7e6ce8009b939faef4f1707d95ab095c8dc6181e44cda', ''),
    'sigmap l(1) 0.0625 json 5 plain': (3, 'e09e7d359045c5ab72e30c780a79f7111ab8e4ac1cf8e0f2e15e329e31c4d406', ''),
    'sigmap l(1) 0.0625 json 5 faces': (3, '7a62f6928820317717f08041a9d51ced4bbb8ff26576a2206a119cf184eca9ce', ''),
    'sigmap l(1) 0.0625 json 5 slope': (3, 'e09e7d359045c5ab72e30c780a79f7111ab8e4ac1cf8e0f2e15e329e31c4d406', ''),
    'sigmap l(1) 0.0625 json 5 faces+slope': (3, '9fad61b2e0ac4e0382d250bc3a21a6a98989a25eca10f185b9254feea03337f3', ''),
    'sigmap l(1) 0.0625 json 7 plain': (3, '763612e89b0377586de3e4c5ac6abc5124f761b2530113f85ebfbf565ddac3aa', ''),
    'sigmap l(1) 0.0625 json 7 faces': (3, '688db61d61db94bc8c9fe47b590d65990e5cadd330032227aa90f2325246b778', ''),
    'sigmap l(1) 0.0625 json 7 slope': (3, '763612e89b0377586de3e4c5ac6abc5124f761b2530113f85ebfbf565ddac3aa', ''),
    'sigmap l(1) 0.0625 json 7 faces+slope': (3, '8cf148d6ca3bac3c1efef38be1accd29ad0f4a84bd14d6959137999c90f2327b', ''),
    'report l(1) 2 2 plain': (0, '75d0f6acd70c0d2239a205430350b3b7201a2a15eb988a0970c5aeba0ba4c7a4', ''),
    'report l(1) 2 2 slope': (0, 'cedca4a7fa9b2547d4c031566ed00c5c0dcfebeb37f83db1e6bdc4f246bf0a72', ''),
    'report l(1) 3 2 plain': (0, '3e14ada54d3abe992f9528e3c6112e42de549c42085f1ed231d88f782546996e', ''),
    'report l(1) 3 2 slope': (0, '10729536e1db588d2be1962d592eca8bfe02f31b4fd1aa2706d7218822630696', ''),
    'report l(1) 5 1 plain': (0, '806c60b8dd48190183d2ea8d1678f1abc82a92f3a5f3a320dd7656866c6df31c', ''),
    'report l(1) 5 1 slope': (0, '7ac86ce7a29bb3dd85b743365ed23491218793f7736bebe85982a639f474661d', ''),
    'report l(1) 3 3 plain': (0, '8b1b3abd1e4f63c4b6408a1b35c6ab9aba6b8995463396b1c088a6a75591d072', ''),
    'report l(1) 3 3 slope': (0, 'e7a2424c387175c3b394c2a69cc2b06c63705634af626337089dbbea3c879bcc', ''),
    'sigmap l(2) 1e-9 csv 5 plain': (0, '487db95a0ae0e7ff1c3ece72826d60c330d8c7a3b34fcae499810e1fecc71e6b', ''),
    'sigmap l(2) 1e-9 csv 5 faces': (0, '96fb29d784d8238f3beb447350799ee99a8df5972d6f7304a9e6fb7c4d6339e9', ''),
    'sigmap l(2) 1e-9 csv 5 slope': (0, '487db95a0ae0e7ff1c3ece72826d60c330d8c7a3b34fcae499810e1fecc71e6b', ''),
    'sigmap l(2) 1e-9 csv 5 faces+slope': (0, '1169799e515835869801b1d0192f60aee8e67ef334e8f94b51a5efddd00bb4e1', ''),
    'sigmap l(2) 1e-9 csv 7 plain': (0, 'ae05affd21b8f3f972a81c0d057cae3260e5939c82b0da2bc375222bc313fa16', ''),
    'sigmap l(2) 1e-9 csv 7 faces': (0, '5428986c1275522c8651711070b204753de209130015836d17339e05c3529f6a', ''),
    'sigmap l(2) 1e-9 csv 7 slope': (0, 'ae05affd21b8f3f972a81c0d057cae3260e5939c82b0da2bc375222bc313fa16', ''),
    'sigmap l(2) 1e-9 csv 7 faces+slope': (0, 'a4994ac022ae3188c2c3ac2eb897ea762b4b6247b6470230e8f337fd6c4bca7f', ''),
    'sigmap l(2) 1e-9 json 5 plain': (0, 'b2ae5be0405911d55cbf49bdc1fedd965cfe48dda0ba6b987c7fda0df6d11c09', ''),
    'sigmap l(2) 1e-9 json 5 faces': (0, '365283225a4260c15dd09a529beb07d1689e3d42d349b3a5dd449515eeb32241', ''),
    'sigmap l(2) 1e-9 json 5 slope': (0, 'b2ae5be0405911d55cbf49bdc1fedd965cfe48dda0ba6b987c7fda0df6d11c09', ''),
    'sigmap l(2) 1e-9 json 5 faces+slope': (0, '0debfc965515a2c7192f100645d9c2a86e257716b3fdedf4358bae28cf3eff61', ''),
    'sigmap l(2) 1e-9 json 7 plain': (0, '6c0490316af93d0e83d64c4b5cab5e92399dccf68e127b5480b0512962d56097', ''),
    'sigmap l(2) 1e-9 json 7 faces': (0, 'dd8d1442e8d110039885f344603504144cd3abe770a2e1da200691db2bcda5a0', ''),
    'sigmap l(2) 1e-9 json 7 slope': (0, '6c0490316af93d0e83d64c4b5cab5e92399dccf68e127b5480b0512962d56097', ''),
    'sigmap l(2) 1e-9 json 7 faces+slope': (0, '83fea3abf8aba1d3d9ad160fc3a899a68e672f19dd45ebf9094d9ce46526b105', ''),
    'sigmap l(2) 0.0625 csv 5 plain': (3, '1bc7800be9b7651e4d5f749127ee3555353966c4c39cf58eec654521020750fe', ''),
    'sigmap l(2) 0.0625 csv 5 faces': (3, 'e98e73b65dac612478d4257cb1ab362103a2476b14942786ce4b768cb3f91868', ''),
    'sigmap l(2) 0.0625 csv 5 slope': (3, '1bc7800be9b7651e4d5f749127ee3555353966c4c39cf58eec654521020750fe', ''),
    'sigmap l(2) 0.0625 csv 5 faces+slope': (3, '0e92bbed5e61cbf423a48d618473bd3816845f1919a1f9ce57c1d7e7c7cc5c31', ''),
    'sigmap l(2) 0.0625 csv 7 plain': (3, '31ea642a7b70df8b97c50bcb4319f510908b9d6ad58ea21541dfffb1a05e69a1', ''),
    'sigmap l(2) 0.0625 csv 7 faces': (3, '07819483f65fdee8ff03bb832e85255b44e59870e21077f80f6d7ccc3aeb0c1e', ''),
    'sigmap l(2) 0.0625 csv 7 slope': (3, '31ea642a7b70df8b97c50bcb4319f510908b9d6ad58ea21541dfffb1a05e69a1', ''),
    'sigmap l(2) 0.0625 csv 7 faces+slope': (3, '4bbd5f9e5327d52e1c539e2306005c708238ab4d94919a08a6d51cad6af5769f', ''),
    'sigmap l(2) 0.0625 json 5 plain': (3, 'e09e7d359045c5ab72e30c780a79f7111ab8e4ac1cf8e0f2e15e329e31c4d406', ''),
    'sigmap l(2) 0.0625 json 5 faces': (3, '7a62f6928820317717f08041a9d51ced4bbb8ff26576a2206a119cf184eca9ce', ''),
    'sigmap l(2) 0.0625 json 5 slope': (3, 'e09e7d359045c5ab72e30c780a79f7111ab8e4ac1cf8e0f2e15e329e31c4d406', ''),
    'sigmap l(2) 0.0625 json 5 faces+slope': (3, '9fad61b2e0ac4e0382d250bc3a21a6a98989a25eca10f185b9254feea03337f3', ''),
    'sigmap l(2) 0.0625 json 7 plain': (3, '763612e89b0377586de3e4c5ac6abc5124f761b2530113f85ebfbf565ddac3aa', ''),
    'sigmap l(2) 0.0625 json 7 faces': (3, '688db61d61db94bc8c9fe47b590d65990e5cadd330032227aa90f2325246b778', ''),
    'sigmap l(2) 0.0625 json 7 slope': (3, '763612e89b0377586de3e4c5ac6abc5124f761b2530113f85ebfbf565ddac3aa', ''),
    'sigmap l(2) 0.0625 json 7 faces+slope': (3, 'c5825d8b7672b7819f13aadcb34f55608d807dbfdf5d596c7649310d0e80f2b9', ''),
    'report l(2) 2 2 plain': (0, '75d0f6acd70c0d2239a205430350b3b7201a2a15eb988a0970c5aeba0ba4c7a4', ''),
    'report l(2) 2 2 slope': (0, 'cedca4a7fa9b2547d4c031566ed00c5c0dcfebeb37f83db1e6bdc4f246bf0a72', ''),
    'report l(2) 3 2 plain': (0, '3e14ada54d3abe992f9528e3c6112e42de549c42085f1ed231d88f782546996e', ''),
    'report l(2) 3 2 slope': (0, '10729536e1db588d2be1962d592eca8bfe02f31b4fd1aa2706d7218822630696', ''),
    'report l(2) 5 1 plain': (0, '806c60b8dd48190183d2ea8d1678f1abc82a92f3a5f3a320dd7656866c6df31c', ''),
    'report l(2) 5 1 slope': (0, '7ac86ce7a29bb3dd85b743365ed23491218793f7736bebe85982a639f474661d', ''),
    'sigmap l(3) 1e-9 csv 5 plain': (0, '487db95a0ae0e7ff1c3ece72826d60c330d8c7a3b34fcae499810e1fecc71e6b', ''),
    'sigmap l(3) 1e-9 csv 5 faces': (0, '96fb29d784d8238f3beb447350799ee99a8df5972d6f7304a9e6fb7c4d6339e9', ''),
    'sigmap l(3) 1e-9 csv 5 slope': (0, '487db95a0ae0e7ff1c3ece72826d60c330d8c7a3b34fcae499810e1fecc71e6b', ''),
    'sigmap l(3) 1e-9 csv 5 faces+slope': (0, '1169799e515835869801b1d0192f60aee8e67ef334e8f94b51a5efddd00bb4e1', ''),
    'sigmap l(3) 1e-9 csv 7 plain': (0, 'ae05affd21b8f3f972a81c0d057cae3260e5939c82b0da2bc375222bc313fa16', ''),
    'sigmap l(3) 1e-9 csv 7 faces': (0, '5428986c1275522c8651711070b204753de209130015836d17339e05c3529f6a', ''),
    'sigmap l(3) 1e-9 csv 7 slope': (0, 'ae05affd21b8f3f972a81c0d057cae3260e5939c82b0da2bc375222bc313fa16', ''),
    'sigmap l(3) 1e-9 csv 7 faces+slope': (0, 'a4994ac022ae3188c2c3ac2eb897ea762b4b6247b6470230e8f337fd6c4bca7f', ''),
    'sigmap l(3) 1e-9 json 5 plain': (0, 'b2ae5be0405911d55cbf49bdc1fedd965cfe48dda0ba6b987c7fda0df6d11c09', ''),
    'sigmap l(3) 1e-9 json 5 faces': (0, '365283225a4260c15dd09a529beb07d1689e3d42d349b3a5dd449515eeb32241', ''),
    'sigmap l(3) 1e-9 json 5 slope': (0, 'b2ae5be0405911d55cbf49bdc1fedd965cfe48dda0ba6b987c7fda0df6d11c09', ''),
    'sigmap l(3) 1e-9 json 5 faces+slope': (0, '0debfc965515a2c7192f100645d9c2a86e257716b3fdedf4358bae28cf3eff61', ''),
    'sigmap l(3) 1e-9 json 7 plain': (0, '6c0490316af93d0e83d64c4b5cab5e92399dccf68e127b5480b0512962d56097', ''),
    'sigmap l(3) 1e-9 json 7 faces': (0, 'dd8d1442e8d110039885f344603504144cd3abe770a2e1da200691db2bcda5a0', ''),
    'sigmap l(3) 1e-9 json 7 slope': (0, '6c0490316af93d0e83d64c4b5cab5e92399dccf68e127b5480b0512962d56097', ''),
    'sigmap l(3) 1e-9 json 7 faces+slope': (0, '83fea3abf8aba1d3d9ad160fc3a899a68e672f19dd45ebf9094d9ce46526b105', ''),
    'sigmap l(3) 0.0625 csv 5 plain': (3, '1bc7800be9b7651e4d5f749127ee3555353966c4c39cf58eec654521020750fe', ''),
    'sigmap l(3) 0.0625 csv 5 faces': (3, 'e98e73b65dac612478d4257cb1ab362103a2476b14942786ce4b768cb3f91868', ''),
    'sigmap l(3) 0.0625 csv 5 slope': (3, '1bc7800be9b7651e4d5f749127ee3555353966c4c39cf58eec654521020750fe', ''),
    'sigmap l(3) 0.0625 csv 5 faces+slope': (3, 'dc6f1bf2a024be8fb445fbfa219fde55bbb870e74a5224cc6b8bfe43f15ac556', ''),
    'sigmap l(3) 0.0625 csv 7 plain': (3, '31ea642a7b70df8b97c50bcb4319f510908b9d6ad58ea21541dfffb1a05e69a1', ''),
    'sigmap l(3) 0.0625 csv 7 faces': (3, '07819483f65fdee8ff03bb832e85255b44e59870e21077f80f6d7ccc3aeb0c1e', ''),
    'sigmap l(3) 0.0625 csv 7 slope': (3, '31ea642a7b70df8b97c50bcb4319f510908b9d6ad58ea21541dfffb1a05e69a1', ''),
    'sigmap l(3) 0.0625 csv 7 faces+slope': (3, '850b6b904645e03bfcaae6b77056a53ff90feaed86f34855e73de0c8bc405bb1', ''),
    'sigmap l(3) 0.0625 json 5 plain': (3, 'e09e7d359045c5ab72e30c780a79f7111ab8e4ac1cf8e0f2e15e329e31c4d406', ''),
    'sigmap l(3) 0.0625 json 5 faces': (3, '7a62f6928820317717f08041a9d51ced4bbb8ff26576a2206a119cf184eca9ce', ''),
    'sigmap l(3) 0.0625 json 5 slope': (3, 'e09e7d359045c5ab72e30c780a79f7111ab8e4ac1cf8e0f2e15e329e31c4d406', ''),
    'sigmap l(3) 0.0625 json 5 faces+slope': (3, '4a1ae059980283872a3d4e3bcb8d70b5e763a6f66c944a2fa091cdac44d140cf', ''),
    'sigmap l(3) 0.0625 json 7 plain': (3, '763612e89b0377586de3e4c5ac6abc5124f761b2530113f85ebfbf565ddac3aa', ''),
    'sigmap l(3) 0.0625 json 7 faces': (3, '688db61d61db94bc8c9fe47b590d65990e5cadd330032227aa90f2325246b778', ''),
    'sigmap l(3) 0.0625 json 7 slope': (3, '763612e89b0377586de3e4c5ac6abc5124f761b2530113f85ebfbf565ddac3aa', ''),
    'sigmap l(3) 0.0625 json 7 faces+slope': (3, '3b647139014f6f21f68a3ec6b674983cb330f4446b23b982aae37274a6e4018c', ''),
    'report l(3) 2 2 plain': (0, '75d0f6acd70c0d2239a205430350b3b7201a2a15eb988a0970c5aeba0ba4c7a4', ''),
    'report l(3) 2 2 slope': (0, 'cedca4a7fa9b2547d4c031566ed00c5c0dcfebeb37f83db1e6bdc4f246bf0a72', ''),
    'report l(3) 3 2 plain': (0, '3e14ada54d3abe992f9528e3c6112e42de549c42085f1ed231d88f782546996e', ''),
    'report l(3) 3 2 slope': (0, '10729536e1db588d2be1962d592eca8bfe02f31b4fd1aa2706d7218822630696', ''),
    'report l(3) 5 1 plain': (0, '806c60b8dd48190183d2ea8d1678f1abc82a92f3a5f3a320dd7656866c6df31c', ''),
    'report l(3) 5 1 slope': (0, '7ac86ce7a29bb3dd85b743365ed23491218793f7736bebe85982a639f474661d', ''),
    'sigmap l(4) 1e-9 csv 5 plain': (0, '487db95a0ae0e7ff1c3ece72826d60c330d8c7a3b34fcae499810e1fecc71e6b', ''),
    'sigmap l(4) 1e-9 csv 5 faces': (0, '96fb29d784d8238f3beb447350799ee99a8df5972d6f7304a9e6fb7c4d6339e9', ''),
    'sigmap l(4) 1e-9 csv 5 slope': (0, '487db95a0ae0e7ff1c3ece72826d60c330d8c7a3b34fcae499810e1fecc71e6b', ''),
    'sigmap l(4) 1e-9 csv 5 faces+slope': (0, '1169799e515835869801b1d0192f60aee8e67ef334e8f94b51a5efddd00bb4e1', ''),
    'sigmap l(4) 1e-9 csv 7 plain': (0, 'ae05affd21b8f3f972a81c0d057cae3260e5939c82b0da2bc375222bc313fa16', ''),
    'sigmap l(4) 1e-9 csv 7 faces': (0, '5428986c1275522c8651711070b204753de209130015836d17339e05c3529f6a', ''),
    'sigmap l(4) 1e-9 csv 7 slope': (0, 'ae05affd21b8f3f972a81c0d057cae3260e5939c82b0da2bc375222bc313fa16', ''),
    'sigmap l(4) 1e-9 csv 7 faces+slope': (0, 'a4994ac022ae3188c2c3ac2eb897ea762b4b6247b6470230e8f337fd6c4bca7f', ''),
    'sigmap l(4) 1e-9 json 5 plain': (0, 'b2ae5be0405911d55cbf49bdc1fedd965cfe48dda0ba6b987c7fda0df6d11c09', ''),
    'sigmap l(4) 1e-9 json 5 faces': (0, '365283225a4260c15dd09a529beb07d1689e3d42d349b3a5dd449515eeb32241', ''),
    'sigmap l(4) 1e-9 json 5 slope': (0, 'b2ae5be0405911d55cbf49bdc1fedd965cfe48dda0ba6b987c7fda0df6d11c09', ''),
    'sigmap l(4) 1e-9 json 5 faces+slope': (0, '0debfc965515a2c7192f100645d9c2a86e257716b3fdedf4358bae28cf3eff61', ''),
    'sigmap l(4) 1e-9 json 7 plain': (0, '6c0490316af93d0e83d64c4b5cab5e92399dccf68e127b5480b0512962d56097', ''),
    'sigmap l(4) 1e-9 json 7 faces': (0, 'dd8d1442e8d110039885f344603504144cd3abe770a2e1da200691db2bcda5a0', ''),
    'sigmap l(4) 1e-9 json 7 slope': (0, '6c0490316af93d0e83d64c4b5cab5e92399dccf68e127b5480b0512962d56097', ''),
    'sigmap l(4) 1e-9 json 7 faces+slope': (0, '83fea3abf8aba1d3d9ad160fc3a899a68e672f19dd45ebf9094d9ce46526b105', ''),
    'sigmap l(4) 0.0625 csv 5 plain': (3, '1bc7800be9b7651e4d5f749127ee3555353966c4c39cf58eec654521020750fe', ''),
    'sigmap l(4) 0.0625 csv 5 faces': (3, 'e98e73b65dac612478d4257cb1ab362103a2476b14942786ce4b768cb3f91868', ''),
    'sigmap l(4) 0.0625 csv 5 slope': (3, '1bc7800be9b7651e4d5f749127ee3555353966c4c39cf58eec654521020750fe', ''),
    'sigmap l(4) 0.0625 csv 5 faces+slope': (3, '2a28e06cdaebbb2ee9b79348c8cf47126748c259a80d3ed554d4e00d37272cc0', ''),
    'sigmap l(4) 0.0625 csv 7 plain': (3, '31ea642a7b70df8b97c50bcb4319f510908b9d6ad58ea21541dfffb1a05e69a1', ''),
    'sigmap l(4) 0.0625 csv 7 faces': (3, '07819483f65fdee8ff03bb832e85255b44e59870e21077f80f6d7ccc3aeb0c1e', ''),
    'sigmap l(4) 0.0625 csv 7 slope': (3, '31ea642a7b70df8b97c50bcb4319f510908b9d6ad58ea21541dfffb1a05e69a1', ''),
    'sigmap l(4) 0.0625 csv 7 faces+slope': (3, 'a79e4e83ff4ab2f9d348439d5ab1845b5c0531a5c09f72cf1dc5644c5f8b6f15', ''),
    'sigmap l(4) 0.0625 json 5 plain': (3, 'e09e7d359045c5ab72e30c780a79f7111ab8e4ac1cf8e0f2e15e329e31c4d406', ''),
    'sigmap l(4) 0.0625 json 5 faces': (3, '7a62f6928820317717f08041a9d51ced4bbb8ff26576a2206a119cf184eca9ce', ''),
    'sigmap l(4) 0.0625 json 5 slope': (3, 'e09e7d359045c5ab72e30c780a79f7111ab8e4ac1cf8e0f2e15e329e31c4d406', ''),
    'sigmap l(4) 0.0625 json 5 faces+slope': (3, 'df5b84de07fdb89c81aad73c20d244c3b4ac38a18263f00850be8f5d6bf2208a', ''),
    'sigmap l(4) 0.0625 json 7 plain': (3, '763612e89b0377586de3e4c5ac6abc5124f761b2530113f85ebfbf565ddac3aa', ''),
    'sigmap l(4) 0.0625 json 7 faces': (3, '688db61d61db94bc8c9fe47b590d65990e5cadd330032227aa90f2325246b778', ''),
    'sigmap l(4) 0.0625 json 7 slope': (3, '763612e89b0377586de3e4c5ac6abc5124f761b2530113f85ebfbf565ddac3aa', ''),
    'sigmap l(4) 0.0625 json 7 faces+slope': (3, '3c75824f92a48b72499a48cab156fe96d47f0c5f5af258c6e8a167d3dca02777', ''),
    'report l(4) 2 2 plain': (0, '75d0f6acd70c0d2239a205430350b3b7201a2a15eb988a0970c5aeba0ba4c7a4', ''),
    'report l(4) 2 2 slope': (0, 'cedca4a7fa9b2547d4c031566ed00c5c0dcfebeb37f83db1e6bdc4f246bf0a72', ''),
    'report l(4) 3 2 plain': (0, '3e14ada54d3abe992f9528e3c6112e42de549c42085f1ed231d88f782546996e', ''),
    'report l(4) 3 2 slope': (0, '10729536e1db588d2be1962d592eca8bfe02f31b4fd1aa2706d7218822630696', ''),
    'report l(4) 5 1 plain': (0, '806c60b8dd48190183d2ea8d1678f1abc82a92f3a5f3a320dd7656866c6df31c', ''),
    'report l(4) 5 1 slope': (0, '7ac86ce7a29bb3dd85b743365ed23491218793f7736bebe85982a639f474661d', ''),
    'sigmap l(1) 1e-9 csv 32 plain': (0, '5db0cc927bb12affbfd5ce29aa1e6c0f3b8f71687f66d54cd3005046b7fea9cb', ''),
    'sigmap l(1) 1e-9 json 32 plain': (0, '55786f78b642a8d3b0bc600bffa133e53c8507f688ad24281606dc96f2c9ca3a', ''),
}


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("catalog")
    with contextlib.redirect_stdout(io.StringIO()):
        for key in KEYS:
            assert main(["catalog", "show", key, "--export", str(out)]) == 0
    return str(out)


def _argv(case: str, export_dir: str, out_path: str) -> list[str]:
    kind, key, *rest = case.split(" ")
    safe = key.replace("(", "_").replace(")", "")
    link = os.path.join(export_dir, f"{safe}.link.json")
    slope = ["--slope", os.path.join(export_dir, f"{safe}.slope.json")]
    if kind == "report":
        p, d, with_slope = rest
        return ["report", link, "--prime", p, "--depth", d] + (slope if with_slope == "slope" else [])
    tau, fmt, n, mode = rest
    argv = ["--tau", tau, "sigmap", link, "--grid", n, "--format", fmt]
    argv += ["--faces"] * ("faces" in mode) + slope * ("slope" in mode)
    return argv + ["--out", out_path] * (fmt != "csv")


def _cases() -> list[str]:
    cases = []
    for key in KEYS:
        entry = catalog.get(key)
        grids = (5, 7, 12) if entry.link.mu <= 2 else (5, 7)
        modes = ("plain", "faces") + (("slope", "faces+slope") if entry.slope is not None else ())
        formats = ("csv", "json", "ppm") if entry.link.mu == 2 else ("csv", "json")
        cases += [f"sigmap {key} {tau} {fmt} {n} {mode}"
                  for tau in TAUS for fmt in formats for n in grids for mode in modes]
        cases += [f"report {key} {p} {d} {with_slope}" for p, d in ((2, 2), (3, 2), (5, 1))
                  for with_slope in ("plain",) + (("slope",) if entry.slope is not None else ())]
    # the concordance benchmark's command, with and without its slope, and the
    # sweep_small_g benchmark's grid (its command prints CSV; JSON too here)
    return cases + ["report l(1) 3 3 plain", "report l(1) 3 3 slope",
                    "sigmap l(1) 1e-9 csv 32 plain", "sigmap l(1) 1e-9 json 32 plain"]


def run_case(case: str, export_dir: str, out_path: str) -> tuple[int, str, str]:
    """(exit code, SHA-256 of stdout + --out bytes, stderr) of one case."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(_argv(case, export_dir, out_path))
    data = stdout.getvalue().encode("utf-8")
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data += fh.read()
    return code, hashlib.sha256(data).hexdigest(), stderr.getvalue()


@pytest.mark.parametrize("case", _cases())
def test_sweep_command_output_is_golden(case, export_dir, tmp_path):
    assert run_case(case, export_dir, str(tmp_path / "out")) == GOLDEN[case]
