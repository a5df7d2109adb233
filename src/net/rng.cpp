#include "net/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contract.h"

namespace curtain::net {

// Generated in long double from R = 3.6541528853610088 and
// V = R·f(R) + ∫_R^∞ f = 4.9286732339746549e-3: x[i+1] solves
// x[i]·(f(x[i+1]) − f(x[i])) = V. Rng.ZigguratTablesMatchRecursion
// recomputes both tables and every layer's area.
constexpr std::array<double, 257> kZigguratX = {
    0x1.f493b7815d982p+1, 0x1.d3bb48209ad33p+1, 0x1.b981f3878fdbp+1,
    0x1.a8fdc78947759p+1, 0x1.9cbee014057abp+1, 0x1.92ee0946f4496p+1,
    0x1.8ab0fbfaa7c14p+1, 0x1.839030529f233p+1, 0x1.7d42df4d6ce8bp+1,
    0x1.7799556090672p+1, 0x1.72728f05f7a33p+1, 0x1.6db6b8d09e231p+1,
    0x1.69540be9fe5c2p+1, 0x1.653ce7b006aeap+1, 0x1.61669cf861e4bp+1,
    0x1.5dc8a243ad0fep+1, 0x1.5a5c08b718ddap+1, 0x1.571b1a94ae41cp+1,
    0x1.54011523a7e43p+1, 0x1.5109f53e9ac42p+1, 0x1.4e3250dcd8903p+1,
    0x1.4b7739d6b5a28p+1, 0x1.48d62759c43bdp+1, 0x1.464ce44a73a16p+1,
    0x1.43d9815545e94p+1, 0x1.417a49cb9e5dbp+1, 0x1.3f2dbaa60f475p+1,
    0x1.3cf27b31704a6p+1, 0x1.3ac7570ae88fbp+1, 0x1.38ab39256410ap+1,
    0x1.369d27a33a84p+1, 0x1.349c405ae12a3p+1, 0x1.32a7b5e68a4a3p+1,
    0x1.30becd256aeeep+1, 0x1.2ee0db1a978f5p+1, 0x1.2d0d43196db98p+1,
    0x1.2b437532a0a53p+1, 0x1.2982ecd770e78p+1, 0x1.27cb2faa8592ep+1,
    0x1.261bcc77658ep+1, 0x1.24745a4ac9c25p+1, 0x1.22d477a6fd3efp+1,
    0x1.213bc9d04cc82p+1, 0x1.1fa9fc2e2d901p+1, 0x1.1e1ebfbe4ae39p+1,
    0x1.1c99ca971a695p+1, 0x1.1b1ad777f2f8fp+1, 0x1.19a1a564eebadp+1,
    0x1.182df74d21262p+1, 0x1.16bf93b9deef5p+1, 0x1.1556448602e3dp+1,
    0x1.13f1d69c4096fp+1, 0x1.129219bbb5d37p+1, 0x1.1136e04207043p+1,
    0x1.0fdffefa69fb8p+1, 0x1.0e8d4cf116594p+1, 0x1.0d3ea34aa3d32p+1,
    0x1.0bf3dd1eed449p+1, 0x1.0aacd7571c0c5p+1, 0x1.0969708e8a255p+1,
    0x1.082988f632e18p+1, 0x1.06ed023a72669p+1, 0x1.05b3bf6adb37ep+1,
    0x1.047da4e3ef5c7p+1, 0x1.034a983a902abp+1, 0x1.021a8028fc947p+1,
    0x1.00ed447d3a075p+1, 0x1.ff859c118f60bp+0, 0x1.fd360d22fe786p+0,
    0x1.faebb187122bfp+0, 0x1.f8a6604899782p+0, 0x1.f665f20c90168p+0,
    0x1.f42a40fb74d6dp+0, 0x1.f1f328ac25321p+0, 0x1.efc086101eca9p+0,
    0x1.ed9237610a73ap+0, 0x1.eb681c0f76f08p+0, 0x1.e94214b2abf09p+0,
    0x1.e72002f97fe23p+0, 0x1.e501c99c1d186p+0, 0x1.e2e74c4ea46f3p+0,
    0x1.e0d06fb49d219p+0, 0x1.debd195522e34p+0, 0x1.dcad2f8fc490cp+0,
    0x1.daa0999206e6fp+0, 0x1.d8973f4d7fba5p+0, 0x1.d691096e7f123p+0,
    0x1.d48de1533c647p+0, 0x1.d28db1037ef21p+0, 0x1.d0906328b8f6fp+0,
    0x1.ce95e3068e038p+0, 0x1.cc9e1c73bd69p+0, 0x1.caa8fbd36a2acp+0,
    0x1.c8b66e0eba617p+0, 0x1.c6c6608ec8706p+0, 0x1.c4d8c136e0d1dp+0,
    0x1.c2ed7e5f07a2dp+0, 0x1.c10486cec16ap+0, 0x1.bf1dc9b81ae83p+0,
    0x1.bd3936b2ec0a2p+0, 0x1.bb56bdb85256ep+0, 0x1.b9764f1e5f73dp+0,
    0x1.b797db93f8928p+0, 0x1.b5bb541ce3d04p+0, 0x1.b3e0aa0e00c01p+0,
    0x1.b207cf09a985cp+0, 0x1.b030b4fc3a11cp+0, 0x1.ae5b4e18bb338p+0,
    0x1.ac878cd5af5dp+0, 0x1.aab563e9ff10bp+0, 0x1.a8e4c64a0314p+0,
    0x1.a715a724aa9a7p+0, 0x1.a547f9e0bbb8bp+0, 0x1.a37bb21a2c85fp+0,
    0x1.a1b0c39f93696p+0, 0x1.9fe7226fad24ep+0, 0x1.9e1ec2b6f7414p+0,
    0x1.9c5798cd5d92ep+0, 0x1.9a919933f99c1p+0, 0x1.98ccb892e2a33p+0,
    0x1.9708ebb70d5fp+0, 0x1.954627903a28cp+0, 0x1.9384612ef0afep+0,
    0x1.91c38dc288349p+0, 0x1.9003a2973b591p+0, 0x1.8e44951446a28p+0,
    0x1.8c865aba10c9dp+0, 0x1.8ac8e9205c045p+0, 0x1.890c35f47f72fp+0,
    0x1.875036f7a7ec7p+0, 0x1.8594e1fd1f5bep+0, 0x1.83da2ce899f16p+0,
    0x1.82200dac88677p+0, 0x1.80667a486ea2p+0, 0x1.7ead68c73dee8p+0,
    0x1.7cf4cf3db22fdp+0, 0x1.7b3ca3c8b140bp+0, 0x1.7984dc8babd95p+0,
    0x1.77cd6faeff44bp+0, 0x1.7616535e5732p+0, 0x1.745f7dc70eeddp+0,
    0x1.72a8e516914c8p+0, 0x1.70f27f78b68edp+0, 0x1.6f3c43161f856p+0,
    0x1.6d8626128d355p+0, 0x1.6bd01e8b343bep+0, 0x1.6a1a22950b2b4p+0,
    0x1.6864283b13139p+0, 0x1.66ae257c99674p+0, 0x1.64f8104b7260dp+0,
    0x1.6341de8a2b0a4p+0, 0x1.618b860a31fc5p+0, 0x1.5fd4fc89f5e39p+0,
    0x1.5e1e37b2f8cd5p+0, 0x1.5c672d17d733fp+0, 0x1.5aafd23241b5bp+0,
    0x1.58f81c60e8516p+0, 0x1.574000e555f7ap+0, 0x1.558774e1bb2c9p+0,
    0x1.53ce6d56a6651p+0, 0x1.5214df20a8b5cp+0, 0x1.505abef5e5563p+0,
    0x1.4ea001638a606p+0, 0x1.4ce49acb311ddp+0, 0x1.4b287f602415ep+0,
    0x1.496ba32488f3p+0, 0x1.47adf9e66c338p+0, 0x1.45ef773cac75fp+0,
    0x1.44300e83c30a6p+0, 0x1.426fb2da6745fp+0, 0x1.40ae571e09e76p+0,
    0x1.3eebede725a86p+0, 0x1.3d28698561de3p+0, 0x1.3b63bbfb83d06p+0,
    0x1.399dd6fb2b267p+0, 0x1.37d6abe05586dp+0, 0x1.360e2baca52d8p+0,
    0x1.3444470265ea4p+0, 0x1.3278ee1f4b934p+0, 0x1.30ac10d6e48dap+0,
    0x1.2edd9e8cba991p+0, 0x1.2d0d862e1b856p+0, 0x1.2b3bb62b82edcp+0,
    0x1.29681c719d71dp+0, 0x1.2792a661dd382p+0, 0x1.25bb40ca96bffp+0,
    0x1.23e1d7de9c322p+0, 0x1.2206572c4c6ecp+0, 0x1.2028a9940a0a3p+0,
    0x1.1e48b93e0d431p+0, 0x1.1c666f8f82acfp+0, 0x1.1a81b51ee6d8bp+0,
    0x1.189a71a78da37p+0, 0x1.16b08bfc42021p+0, 0x1.14c3e9f8e9144p+0,
    0x1.12d4707310fc2p+0, 0x1.10e20329515f1p+0, 0x1.0eec84b16086fp+0,
    0x1.0cf3d664bcc83p+0, 0x1.0af7d84bc6117p+0, 0x1.08f869071f40fp+0,
    0x1.06f565b72a014p+0, 0x1.04eea9e16a6p+0, 0x1.02e40f5398f9ep+0,
    0x1.00d56e04234efp+0, 0x1.fd8537dfa2eb2p-1, 0x1.f956d9e87d7b4p-1,
    0x1.f51f654d8f68dp-1, 0x1.f0de784f0622bp-1, 0x1.ec93abdf982d3p-1,
    0x1.e83e9337a6f05p-1, 0x1.e3debb5d2ee04p-1, 0x1.df73aa9f17658p-1,
    0x1.dafce0023b8c9p-1, 0x1.d679d29e41f15p-1, 0x1.d1e9f0e80b74dp-1,
    0x1.cd4c9fe722691p-1, 0x1.c8a13a5323b67p-1, 0x1.c3e70f9594ef9p-1,
    0x1.bf1d62abf823ap-1, 0x1.ba4368e529f42p-1, 0x1.b558487427a3p-1,
    0x1.b05b16d136ca3p-1, 0x1.ab4ad6e101638p-1, 0x1.a62676d77cd61p-1,
    0x1.a0eccdca4a733p-1, 0x1.9b9c98e38c54ep-1, 0x1.96347822c1ef2p-1,
    0x1.90b2ea94ecfap-1, 0x1.8b1649e7b76a1p-1, 0x1.855cc53430a7fp-1,
    0x1.7f845ad46f54bp-1, 0x1.798ad10b32a8p-1, 0x1.736dad346f8bp-1,
    0x1.6d2a292000579p-1, 0x1.66bd261a37c46p-1, 0x1.60231cfd97ef3p-1,
    0x1.59580a707ce9ep-1, 0x1.52575621ad37cp-1, 0x1.4b1bb363dfebp-1,
    0x1.439ef8dff9b5dp-1, 0x1.3bd9ec1a2b137p-1, 0x1.33c3fc05791fdp-1,
    0x1.2b52e3863d888p-1, 0x1.227a28f7a1afdp-1, 0x1.192a69741368p-1,
    0x1.0f5053b025d4dp-1, 0x1.04d32278ebbb8p-1, 0x1.f32482d4cd5d9p-2,
    0x1.dac2f5a74728ap-2, 0x1.c004d2f386211p-2, 0x1.a230c2e4cd0d6p-2,
    0x1.801fce82fa728p-2, 0x1.57cb938443b81p-2, 0x1.250af3c2c5bdcp-2,
    0x1.b8d0be3fdf748p-3, 0x0p+0,
};

constexpr std::array<double, 257> kZigguratF = {
    0x1.f4a946f13842ep-12, 0x1.4a605b6b9f70dp-10, 0x1.55f9f43c1b06fp-9,
    0x1.08a1f03b0b205p-8, 0x1.69ea8d90cb863p-8, 0x1.ce160f8ec683cp-8,
    0x1.1a59229952f95p-7, 0x1.4eb96421acfe7p-7, 0x1.841040d8da47dp-7,
    0x1.ba48d274f8fb3p-7, 0x1.f152a4f72dd52p-7, 0x1.1490334603019p-6,
    0x1.30d388dab5e19p-6, 0x1.4d6eaf2fbb066p-6, 0x1.6a5daf40bbf86p-6,
    0x1.879d1b600c10bp-6, 0x1.a529f4e22ebf4p-6, 0x1.c301983cd0911p-6,
    0x1.e121adb828c68p-6, 0x1.ff881d718a5b4p-6, 0x1.0f1982e968009p-5,
    0x1.1e9059f1f6ab6p-5, 0x1.2e27ce83df494p-5, 0x1.3ddf2ce98eec6p-5,
    0x1.4db5d0e11275cp-5, 0x1.5dab23cf2addp-5, 0x1.6dbe9b398d061p-5,
    0x1.7defb77af271cp-5, 0x1.8e3e02a68b5a8p-5, 0x1.9ea90f929556p-5,
    0x1.af30790385f6ep-5, 0x1.bfd3e0f282a2bp-5, 0x1.d092efeadf162p-5,
    0x1.e16d547b25184p-5, 0x1.f262c2b6c6e33p-5, 0x1.01b979e30e495p-4,
    0x1.0a4ed2c159621p-4, 0x1.12f14d0f2179dp-4, 0x1.1ba0cbe97897ep-4,
    0x1.245d344dd0d8fp-4, 0x1.2d266cf9b310dp-4, 0x1.35fc5e4d93e68p-4,
    0x1.3edef23269a8p-4, 0x1.47ce1401b2212p-4, 0x1.50c9b06fa2babp-4,
    0x1.59d1b5774669dp-4, 0x1.62e6124854d1p-4, 0x1.6c06b73694a45p-4,
    0x1.753395aaa116dp-4, 0x1.7e6ca013eefcbp-4, 0x1.87b1c9dbf2845p-4,
    0x1.9103075a4a09ep-4, 0x1.9a604dc9d5b0ap-4, 0x1.a3c9933ea627ap-4,
    0x1.ad3ece9caf627p-4, 0x1.b6bff78f2e227p-4, 0x1.c04d0680b1009p-4,
    0x1.c9e5f493b7404p-4, 0x1.d38abb9bd91dbp-4, 0x1.dd3b56176e88ap-4,
    0x1.e6f7bf29aa545p-4, 0x1.f0bff29520e15p-4, 0x1.fa93ecb6b222ap-4,
    0x1.0239d54067d29p-3, 0x1.072f94bb8bf83p-3, 0x1.0c2b33d5209b8p-3,
    0x1.112cb1da26eb8p-3, 0x1.16340e5a82d62p-3, 0x1.1b41492757d41p-3,
    0x1.2054625183c34p-3, 0x1.256d5a2835eb5p-3, 0x1.2a8c3137a071ap-3,
    0x1.2fb0e847c2a64p-3, 0x1.34db805b4ab88p-3, 0x1.3a0bfaae8d7edp-3,
    0x1.3f4258b6931aep-3, 0x1.447e9c20375d6p-3, 0x1.49c0c6cf5ce2fp-3,
    0x1.4f08dade31fc5p-3, 0x1.5456da9c8683ap-3, 0x1.59aac88f31d74p-3,
    0x1.5f04a76f884p-3, 0x1.64647a2adf1a3p-3, 0x1.69ca43e21f261p-3,
    0x1.6f3607e964719p-3, 0x1.74a7c9c7ab5a8p-3, 0x1.7a1f8d368a323p-3,
    0x1.7f9d5621f7173p-3, 0x1.852128a819a37p-3, 0x1.8aab091928159p-3,
    0x1.903afbf74fa68p-3, 0x1.95d105f6a7c26p-3, 0x1.9b6d2bfd2fe59p-3,
    0x1.a10f7322d7e3bp-3, 0x1.a6b7e0b19267bp-3, 0x1.ac667a2571804p-3,
    0x1.b21b452ccd139p-3, 0x1.b7d647a8731aap-3, 0x1.bd9787abe18a1p-3,
    0x1.c35f0b7d89d45p-3, 0x1.c92cd9971df52p-3, 0x1.cf00f8a5e6fc9p-3,
    0x1.d4db6f8b2514bp-3, 0x1.dabc455c79005p-3, 0x1.e0a381645718p-3,
    0x1.e6912b2283cd8p-3, 0x1.ec854a4c99c3dp-3, 0x1.f27fe6ce998cbp-3,
    0x1.f88108cb8322ep-3, 0x1.fe88b89df93bbp-3, 0x1.024b7f6c77479p-2,
    0x1.0555f2242e9d4p-2, 0x1.0863b8f90433p-2, 0x1.0b74d88b242d3p-2,
    0x1.0e895598709bdp-2, 0x1.11a134fcf241dp-2, 0x1.14bc7bb34ee62p-2,
    0x1.17db2ed5454e5p-2, 0x1.1afd539c2f04cp-2, 0x1.1e22ef6188112p-2,
    0x1.214c079f7cc9bp-2, 0x1.2478a1f17de86p-2, 0x1.27a8c414db11ap-2,
    0x1.2adc73e963fd9p-2, 0x1.2e13b77210763p-2, 0x1.314e94d5af62cp-2,
    0x1.348d125f9d19bp-2, 0x1.37cf368081376p-2, 0x1.3b1507cf143abp-2,
    0x1.3e5e8d08ed2d8p-2, 0x1.41abcd1357a17p-2, 0x1.44fccefc324fcp-2,
    0x1.485199fad6ad3p-2, 0x1.4baa357109ca1p-2, 0x1.4f06a8ebf6d9p-2,
    0x1.5266fc2533beap-2, 0x1.55cb3703d00fcp-2, 0x1.5933619d6eebbp-2,
    0x1.5c9f84376c24p-2, 0x1.600fa7480d2c5p-2, 0x1.6383d377be512p-2,
    0x1.66fc11a25cbdep-2, 0x1.6a786ad88de1dp-2, 0x1.6df8e86124ca5p-2,
    0x1.717d93ba96147p-2, 0x1.7506769c7b1e7p-2, 0x1.78939af9252e5p-2,
    0x1.7c250aff414abp-2, 0x1.7fbad11b8d90cp-2, 0x1.8354f7faa0dd5p-2,
    0x1.86f38a8ac5ab2p-2, 0x1.8a9693fde9184p-2, 0x1.8e3e1fcb9f112p-2,
    0x1.91ea39b33cb13p-2, 0x1.959aedbe09f8fp-2, 0x1.995048418c0c2p-2,
    0x1.9d0a55e1e93dbp-2, 0x1.a0c923946843ap-2, 0x1.a48cbea20c04ap-2,
    0x1.a85534aa4d87cp-2, 0x1.ac2293a5f5a99p-2, 0x1.aff4e9ea1854fp-2,
    0x1.b3cc462b331c7p-2, 0x1.b7a8b78071318p-2, 0x1.bb8a4d6716d8ep-2,
    0x1.bf7117c616a13p-2, 0x1.c35d26f1d2cb4p-2, 0x1.c74e8bb00d7c2p-2,
    0x1.cb45573c0a842p-2, 0x1.cf419b4ae5b68p-2, 0x1.d3436a102107ap-2,
    0x1.d74ad6426de2cp-2, 0x1.db57f320b56a9p-2, 0x1.df6ad47763a02p-2,
    0x1.e3838ea5f9b7dp-2, 0x1.e7a236a4ec3bep-2, 0x1.ebc6e20bd1f4ep-2,
    0x1.eff1a717e8f8dp-2, 0x1.f4229cb2f7aebp-2, 0x1.f859da7a900c3p-2,
    0x1.fc9778c7bbd9ap-2, 0x1.006dc85b8cac1p-1, 0x1.02931e18b8228p-1,
    0x1.04bbcafa63f2bp-1, 0x1.06e7dccf03c32p-1, 0x1.091761d995d7dp-1,
    0x1.0b4a68d70d9aap-1, 0x1.0d8101041429cp-1, 0x1.0fbb3a232590ep-1,
    0x1.11f9248311f34p-1, 0x1.143ad105ea997p-1, 0x1.16805128639d6p-1,
    0x1.18c9b709b3c4cp-1, 0x1.1b171573fd10dp-1, 0x1.1d687fe549965p-1,
    0x1.1fbe0a992961cp-1, 0x1.2217ca92ff7edp-1, 0x1.2475d5a90db7fp-1,
    0x1.26d84290504e8p-1, 0x1.293f28e93cd1p-1, 0x1.2baaa14d79545p-1,
    0x1.2e1ac55ea3be9p-1, 0x1.308fafd6438eap-1, 0x1.33097c9703a31p-1,
    0x1.358848bf550e5p-1, 0x1.380c32bda00d2p-1, 0x1.3a955a662cd0ap-1,
    0x1.3d23e10af31ap-1, 0x1.3fb7e99585b7fp-1, 0x1.425198a355fdfp-1,
    0x1.44f114a493676p-1, 0x1.479685fdf500ep-1, 0x1.4a42172dc5275p-1,
    0x1.4cf3f4f494ebdp-1, 0x1.4fac4e820b664p-1, 0x1.526b55a656cd2p-1,
    0x1.55313f08d9e43p-1, 0x1.57fe4264c8d8bp-1, 0x1.5ad29acc85c85p-1,
    0x1.5dae86f4aff65p-1, 0x1.6092498802661p-1, 0x1.637e298550c14p-1,
    0x1.667272a92e31fp-1, 0x1.696f75e513b25p-1, 0x1.6c7589e635a85p-1,
    0x1.6f850baea7aeap-1, 0x1.729e5f43f6d0dp-1, 0x1.75c1f0770d851p-1,
    0x1.78f033ca0b0dp-1, 0x1.7c29a779c6854p-1, 0x1.7f6ed4b20e2c7p-1,
    0x1.82c050f56cf6ap-1, 0x1.861ebfc37bca7p-1, 0x1.898ad48badefdp-1,
    0x1.8d0554fe60aa3p-1, 0x1.908f1bd31714ap-1, 0x1.94291c21b7a42p-1,
    0x1.97d4657617abcp-1, 0x1.9b9228d24067dp-1, 0x1.9f63bee651fd3p-1,
    0x1.a34aafdf5af0bp-1, 0x1.a748bd550c9ddp-1, 0x1.ab5fef17a25p-1,
    0x1.af92a3f6ce89ep-1, 0x1.b3e3a8234dd0cp-1, 0x1.b85653a8ff54ep-1,
    0x1.bceeb4ee1dc7dp-1, 0x1.c1b1cd9eebae5p-1, 0x1.c6a5ecea9787ap-1,
    0x1.cbd33a8a72de7p-1, 0x1.d144978a119d7p-1, 0x1.d70920657bcedp-1,
    0x1.dd36fa704de9p-1, 0x1.e3f11e027f072p-1, 0x1.eb7545b6ca91p-1,
    0x1.f446ac979f08p-1, 0x1p+0,
};

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; splitmix64 of any seed
  // makes that astronomically unlikely, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::derive(uint64_t id) const { return Rng(mix_key(seed_, id)); }

Rng Rng::derive(std::string_view tag) const { return Rng(mix_key(seed_, hash_tag(tag))); }

Rng Rng::derive(std::string_view tag, uint64_t id) const {
  return Rng(mix_key(mix_key(seed_, hash_tag(tag)), id));
}

double Rng::next_double() {
  // 53 high bits -> uniform double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::uniform_u64(uint64_t lo, uint64_t hi) {
  CURTAIN_DCHECK(lo <= hi) << "uniform_u64(" << lo << ", " << hi << ")";
  const uint64_t range = hi - lo + 1;
  if (range == 0) return next_u64();  // full 64-bit range
  return lo + UniformBelow(range)(*this);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

double Rng::normal() {
  for (;;) {
    // One word per try: the low 8 bits pick the layer, the high 53 give
    // a signed abscissa u in [-1, 1). The two fields share no bit.
    const uint64_t bits = next_u64();
    const size_t layer = bits & 0xff;
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    const double x = u * kZigguratX[layer];
    // Inside the layer's rectangle that lies wholly under the curve:
    // about 98.5% of tries end here.
    if (std::fabs(x) < kZigguratX[layer + 1]) return x;
    if (layer == 0) {
      // The base strip's part beyond R: the tail, by Marsaglia's
      // exponential method (accept when 2y >= t²), on the side u chose.
      double t = 0.0;
      double y = 0.0;
      do {
        t = -std::log(1.0 - next_double()) / kZigguratR;
        y = -std::log(1.0 - next_double());
      } while (y + y < t * t);
      return u < 0.0 ? -(kZigguratR + t) : kZigguratR + t;
    }
    // The wedge between the rectangle and the curve: accept a uniform
    // height under exp(-x²/2), otherwise try again.
    const double height =
        kZigguratF[layer + 1] +
        (kZigguratF[layer] - kZigguratF[layer + 1]) * next_double();
    if (height < std::exp(-0.5 * x * x)) return x;
  }
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal_median(double median, double sigma) {
  return median * std::exp(sigma * normal());
}

double Rng::exponential(double mean) {
  return -mean * std::log(1.0 - next_double());
}

bool Rng::bernoulli(double p) { return next_double() < p; }

size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w > 0 ? w : 0;
  CURTAIN_DCHECK(total > 0.0)
      << "weighted_index over " << weights.size() << " non-positive weights";
  double target = next_double() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0 ? weights[i] : 0;
    if (target < w) return i;
    target -= w;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

Binomial::Binomial(uint64_t n, double p) {
  CURTAIN_CHECK(p >= 0.0 && p <= 1.0) << "Binomial(" << n << ", " << p << ")";
  const uint64_t mode = std::min(
      n, static_cast<uint64_t>(static_cast<double>(n + 1) * p));
  // Unnormalised terms, with pmf(mode) = 1; each side of the mode decreases
  // away from it, so the first term below the smallest normal double ends
  // that side. (Subnormal terms would lose precision until a ratio above
  // 1/2 rounded the smallest of them to itself, and a side never ended.)
  constexpr double kSmallest = std::numeric_limits<double>::min();
  // The odds are used only on a side that has terms: at p = 0 the mode is
  // 0 and at p = 1 it is n.
  const double odds = p / (1.0 - p);
  const double inverse_odds = (1.0 - p) / p;
  std::vector<double> below;  // pmf(mode - 1), pmf(mode - 2), ...
  double term = 1.0;
  for (uint64_t k = mode; k > 0; --k) {
    term *= static_cast<double>(k) / static_cast<double>(n - k + 1) *
            inverse_odds;
    if (term < kSmallest) break;
    below.push_back(term);
  }
  first_ = mode - below.size();
  cdf_.assign(below.rbegin(), below.rend());
  cdf_.push_back(1.0);
  term = 1.0;
  for (uint64_t k = mode; k < n; ++k) {
    term *= static_cast<double>(n - k) / static_cast<double>(k + 1) * odds;
    if (term < kSmallest) break;
    cdf_.push_back(term);
  }
  double total = 0.0;
  for (double& entry : cdf_) {
    total += entry;
    entry = total;
  }
  // The last entry becomes total / total: exactly 1, so every u in [0, 1)
  // finds an entry above it.
  for (double& entry : cdf_) entry /= total;
}

uint64_t Binomial::operator()(Rng& rng) const {
  const double u = rng.next_double();
  return first_ + static_cast<uint64_t>(
                      std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                      cdf_.begin());
}

}  // namespace curtain::net
