// The GSM message catalog: Um (air), Abis (BTS-BSC), A (BSC-MSC) and MAP
// (MSC/VLR/HLR/SGSN signaling).  Message names follow the paper's notation
// (Um_/Abis_/A_/MAP_ prefixes) so recorded traces read like its figures.
//
// Wire-type ranges: Um 0x01xx, Abis 0x02xx, A 0x03xx, MAP 0x04xx.
#pragma once

#include "gsm/payloads.hpp"
#include "sim/proto.hpp"

namespace vgprs {

// --- Um: air interface (MS <-> BTS) ----------------------------------------

using UmChannelRequest =
    ProtoMessage<ChannelRequestInfo, 0x0101, "Um_Channel_Request">;
using UmImmediateAssignment =
    ProtoMessage<ChannelAssignmentInfo, 0x0102, "Um_Immediate_Assignment">;
using UmLocationUpdateRequest =
    ProtoMessage<LocationUpdateInfo, 0x0103, "Um_Location_Update_Request">;
using UmLocationUpdateAccept =
    ProtoMessage<LocationUpdateAcceptInfo, 0x0104, "Um_Location_Update_Accept">;
using UmAuthRequest =
    ProtoMessage<AuthChallengeInfo, 0x0105, "Um_Auth_Request">;
using UmAuthResponse =
    ProtoMessage<AuthResponseInfo, 0x0106, "Um_Auth_Response">;
using UmCipherModeCommand =
    ProtoMessage<CipherModeInfo, 0x0107, "Um_Cipher_Mode_Command">;
using UmCipherModeComplete =
    ProtoMessage<SubscriberRefInfo, 0x0108, "Um_Cipher_Mode_Complete">;
using UmCmServiceRequest =
    ProtoMessage<CmServiceInfo, 0x0109, "Um_CM_Service_Request">;
using UmCmServiceAccept =
    ProtoMessage<SubscriberRefInfo, 0x010A, "Um_CM_Service_Accept">;
using UmSetup = ProtoMessage<CallSetupInfo, 0x010B, "Um_Setup">;
using UmCallProceeding =
    ProtoMessage<CallRefInfo, 0x010C, "Um_Call_Proceeding">;
using UmAlerting = ProtoMessage<CallRefInfo, 0x010D, "Um_Alerting">;
using UmConnect = ProtoMessage<CallRefInfo, 0x010E, "Um_Connect">;
using UmConnectAck = ProtoMessage<CallRefInfo, 0x010F, "Um_Connect_Ack">;
using UmDisconnect = ProtoMessage<CallDisconnectInfo, 0x0110, "Um_Disconnect">;
using UmRelease = ProtoMessage<CallRefInfo, 0x0111, "Um_Release">;
using UmReleaseComplete =
    ProtoMessage<CallRefInfo, 0x0112, "Um_Release_Complete">;
using UmPagingRequest = ProtoMessage<PagingInfo, 0x0113, "Um_Paging_Request">;
using UmPagingResponse =
    ProtoMessage<PagingResponseInfo, 0x0114, "Um_Paging_Response">;
using UmAssignmentCommand =
    ProtoMessage<AssignmentInfo, 0x0115, "Um_Assignment_Command">;
using UmAssignmentComplete =
    ProtoMessage<AssignmentInfo, 0x0116, "Um_Assignment_Complete">;
using UmHandoverCommand =
    ProtoMessage<HandoverChannelInfo, 0x0117, "Um_Handover_Command">;
using UmHandoverAccess =
    ProtoMessage<HandoverRefInfo, 0x0118, "Um_Handover_Access">;
using UmHandoverComplete =
    ProtoMessage<HandoverRefInfo, 0x0119, "Um_Handover_Complete">;
using UmVoiceFrame = ProtoMessage<VoiceFrameInfo, 0x0120, "Um_TCH_Frame">;
using UmLocationUpdateReject =
    ProtoMessage<RejectInfo, 0x0121, "Um_Location_Update_Reject">;
using UmCmServiceReject =
    ProtoMessage<RejectInfo, 0x0122, "Um_CM_Service_Reject">;
using UmImsiDetach =
    ProtoMessage<SubscriberRefInfo, 0x0123, "Um_IMSI_Detach">;

// --- Abis: BTS <-> BSC ------------------------------------------------------

using AbisChannelRequest =
    ProtoMessage<ChannelRequestInfo, 0x0201, "Abis_Channel_Request">;
using AbisImmediateAssignment =
    ProtoMessage<ChannelAssignmentInfo, 0x0202, "Abis_Immediate_Assignment">;
using AbisLocationUpdate =
    ProtoMessage<LocationUpdateInfo, 0x0203, "Abis_Location_Update">;
using AbisLocationUpdateAccept =
    ProtoMessage<LocationUpdateAcceptInfo, 0x0204,
                 "Abis_Location_Update_Accept">;
using AbisAuthRequest =
    ProtoMessage<AuthChallengeInfo, 0x0205, "Abis_Auth_Request">;
using AbisAuthResponse =
    ProtoMessage<AuthResponseInfo, 0x0206, "Abis_Auth_Response">;
using AbisCipherModeCommand =
    ProtoMessage<CipherModeInfo, 0x0207, "Abis_Cipher_Mode_Command">;
using AbisCipherModeComplete =
    ProtoMessage<SubscriberRefInfo, 0x0208, "Abis_Cipher_Mode_Complete">;
using AbisCmServiceRequest =
    ProtoMessage<CmServiceInfo, 0x0209, "Abis_CM_Service_Request">;
using AbisCmServiceAccept =
    ProtoMessage<SubscriberRefInfo, 0x020A, "Abis_CM_Service_Accept">;
using AbisSetup = ProtoMessage<CallSetupInfo, 0x020B, "Abis_Setup">;
using AbisCallProceeding =
    ProtoMessage<CallRefInfo, 0x020C, "Abis_Call_Proceeding">;
using AbisAlerting = ProtoMessage<CallRefInfo, 0x020D, "Abis_Alerting">;
using AbisConnect = ProtoMessage<CallRefInfo, 0x020E, "Abis_Connect">;
using AbisConnectAck = ProtoMessage<CallRefInfo, 0x020F, "Abis_Connect_Ack">;
using AbisDisconnect =
    ProtoMessage<CallDisconnectInfo, 0x0210, "Abis_Disconnect">;
using AbisRelease = ProtoMessage<CallRefInfo, 0x0211, "Abis_Release">;
using AbisReleaseComplete =
    ProtoMessage<CallRefInfo, 0x0212, "Abis_Release_Complete">;
using AbisPaging = ProtoMessage<PagingInfo, 0x0213, "Abis_Paging">;
using AbisPagingResponse =
    ProtoMessage<PagingResponseInfo, 0x0214, "Abis_Paging_Response">;
using AbisAssignmentCommand =
    ProtoMessage<AssignmentInfo, 0x0215, "Abis_Assignment_Command">;
using AbisAssignmentComplete =
    ProtoMessage<AssignmentInfo, 0x0216, "Abis_Assignment_Complete">;
using AbisHandoverCommand =
    ProtoMessage<HandoverChannelInfo, 0x0217, "Abis_Handover_Command">;
using AbisHandoverAccess =
    ProtoMessage<HandoverRefInfo, 0x0218, "Abis_Handover_Access">;
using AbisHandoverComplete =
    ProtoMessage<HandoverRefInfo, 0x0219, "Abis_Handover_Complete">;
using AbisVoiceFrame = ProtoMessage<VoiceFrameInfo, 0x0220, "Abis_TRAU_Frame">;
using AbisLocationUpdateReject =
    ProtoMessage<RejectInfo, 0x0221, "Abis_Location_Update_Reject">;
using AbisCmServiceReject =
    ProtoMessage<RejectInfo, 0x0222, "Abis_CM_Service_Reject">;
using AbisImsiDetach =
    ProtoMessage<SubscriberRefInfo, 0x0223, "Abis_IMSI_Detach">;

// --- A: BSC <-> (V)MSC ------------------------------------------------------

using ALocationUpdate =
    ProtoMessage<LocationUpdateInfo, 0x0301, "A_Location_Update">;
using ALocationUpdateAccept =
    ProtoMessage<LocationUpdateAcceptInfo, 0x0302, "A_Location_Update_Accept">;
using AAuthRequest = ProtoMessage<AuthChallengeInfo, 0x0303, "A_Auth_Request">;
using AAuthResponse =
    ProtoMessage<AuthResponseInfo, 0x0304, "A_Auth_Response">;
using ACipherModeCommand =
    ProtoMessage<CipherModeInfo, 0x0305, "A_Cipher_Mode_Command">;
using ACipherModeComplete =
    ProtoMessage<SubscriberRefInfo, 0x0306, "A_Cipher_Mode_Complete">;
using ACmServiceRequest =
    ProtoMessage<CmServiceInfo, 0x0307, "A_CM_Service_Request">;
using ACmServiceAccept =
    ProtoMessage<SubscriberRefInfo, 0x0308, "A_CM_Service_Accept">;
using ASetup = ProtoMessage<CallSetupInfo, 0x0309, "A_Setup">;
using ACallProceeding = ProtoMessage<CallRefInfo, 0x030A, "A_Call_Proceeding">;
using AAlerting = ProtoMessage<CallRefInfo, 0x030B, "A_Alerting">;
using AConnect = ProtoMessage<CallRefInfo, 0x030C, "A_Connect">;
using AConnectAck = ProtoMessage<CallRefInfo, 0x030D, "A_Connect_Ack">;
using ADisconnect = ProtoMessage<CallDisconnectInfo, 0x030E, "A_Disconnect">;
using ARelease = ProtoMessage<CallRefInfo, 0x030F, "A_Release">;
using AReleaseComplete =
    ProtoMessage<CallRefInfo, 0x0310, "A_Release_Complete">;
using APaging = ProtoMessage<PagingInfo, 0x0311, "A_Paging">;
using APagingResponse =
    ProtoMessage<PagingResponseInfo, 0x0312, "A_Paging_Response">;
using AAssignmentRequest =
    ProtoMessage<AssignmentInfo, 0x0313, "A_Assignment_Request">;
using AAssignmentComplete =
    ProtoMessage<AssignmentInfo, 0x0314, "A_Assignment_Complete">;
using AHandoverRequired =
    ProtoMessage<HandoverRequiredInfo, 0x0315, "A_Handover_Required">;
using AHandoverRequest =
    ProtoMessage<HandoverRequiredInfo, 0x0316, "A_Handover_Request">;
using AHandoverRequestAck =
    ProtoMessage<HandoverChannelInfo, 0x0317, "A_Handover_Request_Ack">;
using AHandoverCommand =
    ProtoMessage<HandoverChannelInfo, 0x0318, "A_Handover_Command">;
using AHandoverDetect =
    ProtoMessage<HandoverRefInfo, 0x0319, "A_Handover_Detect">;
using AHandoverComplete =
    ProtoMessage<HandoverRefInfo, 0x031A, "A_Handover_Complete">;
using AClearCommand = ProtoMessage<CallRefInfo, 0x031B, "A_Clear_Command">;
using AClearComplete = ProtoMessage<CallRefInfo, 0x031C, "A_Clear_Complete">;
using AVoiceFrame = ProtoMessage<VoiceFrameInfo, 0x0320, "A_TRAU_Frame">;
using ALocationUpdateReject =
    ProtoMessage<RejectInfo, 0x0321, "A_Location_Update_Reject">;
using ACmServiceReject =
    ProtoMessage<RejectInfo, 0x0322, "A_CM_Service_Reject">;
/// Inter-MSC voice after inter-system handoff (anchor <-> target trunk).
using ETrunkVoice = ProtoMessage<VoiceFrameInfo, 0x0323, "E_Trunk_Voice">;
using AImsiDetach =
    ProtoMessage<SubscriberRefInfo, 0x0324, "A_IMSI_Detach">;

// --- MAP: SS7 signaling among (V)MSC, VLR, HLR, SGSN, GMSC ------------------

using MapSendAuthInfo =
    ProtoMessage<SubscriberRefInfo, 0x0401, "MAP_Send_Auth_Info">;
using MapSendAuthInfoAck =
    ProtoMessage<MapAuthInfoAckInfo, 0x0402, "MAP_Send_Auth_Info_ack">;
using MapUpdateLocationArea =
    ProtoMessage<MapUpdateLocationAreaInfo, 0x0403, "MAP_Update_Location_Area">;
using MapUpdateLocationAreaAck =
    ProtoMessage<MapResultInfo, 0x0404, "MAP_Update_Location_Area_ack">;
using MapUpdateLocation =
    ProtoMessage<MapUpdateLocationInfo, 0x0405, "MAP_Update_Location">;
using MapUpdateLocationAck =
    ProtoMessage<MapResultInfo, 0x0406, "MAP_Update_Location_ack">;
using MapInsertSubsData =
    ProtoMessage<MapInsertSubsDataInfo, 0x0407, "MAP_Insert_Subs_Data">;
using MapInsertSubsDataAck =
    ProtoMessage<SubscriberRefInfo, 0x0408, "MAP_Insert_Subs_Data_ack">;
using MapCancelLocation =
    ProtoMessage<SubscriberRefInfo, 0x0409, "MAP_Cancel_Location">;
using MapCancelLocationAck =
    ProtoMessage<SubscriberRefInfo, 0x040A, "MAP_Cancel_Location_ack">;
using MapSendInfoForOutgoingCall =
    ProtoMessage<MapOutgoingCallInfo, 0x040B,
                 "MAP_Send_Info_For_Outgoing_Call">;
using MapSendInfoForOutgoingCallAck =
    ProtoMessage<MapResultInfo, 0x040C,
                 "MAP_Send_Info_For_Outgoing_Call_ack">;
using MapSendRoutingInformation =
    ProtoMessage<MapSriInfo, 0x040D, "MAP_Send_Routing_Information">;
using MapSendRoutingInformationAck =
    ProtoMessage<MapSriAckInfo, 0x040E, "MAP_Send_Routing_Information_ack">;
using MapProvideRoamingNumber =
    ProtoMessage<MapPrnInfo, 0x040F, "MAP_Provide_Roaming_Number">;
using MapProvideRoamingNumberAck =
    ProtoMessage<MapPrnAckInfo, 0x0410, "MAP_Provide_Roaming_Number_ack">;
using MapPrepareHandover =
    ProtoMessage<MapPrepareHandoverInfo, 0x0411, "MAP_Prepare_Handover">;
using MapPrepareHandoverAck =
    ProtoMessage<MapPrepareHandoverAckInfo, 0x0412, "MAP_Prepare_Handover_ack">;
using MapSendEndSignal =
    ProtoMessage<HandoverRefInfo, 0x0413, "MAP_Send_End_Signal">;
/// MAP U-ABORT on the handover dialogue: the anchor abandoned the attempt,
/// so the target releases whatever it reserved for the MS.
using MapUAbort = ProtoMessage<HandoverRefInfo, 0x041A, "MAP_U_Abort">;
using MapUpdateGprsLocation =
    ProtoMessage<MapGprsLocationInfo, 0x0414, "MAP_Update_Gprs_Location">;
using MapUpdateGprsLocationAck =
    ProtoMessage<MapResultInfo, 0x0415, "MAP_Update_Gprs_Location_ack">;
using MapSendInfoForIncomingCall =
    ProtoMessage<MapIncomingCallInfo, 0x0416,
                 "MAP_Send_Info_For_Incoming_Call">;
using MapSendInfoForIncomingCallAck =
    ProtoMessage<MapIncomingCallAckInfo, 0x0417,
                 "MAP_Send_Info_For_Incoming_Call_ack">;
using MapSendRoutingInfoForGprs =
    ProtoMessage<SubscriberRefInfo, 0x0418, "MAP_Send_Routing_Info_For_GPRS">;
using MapSendRoutingInfoForGprsAck =
    ProtoMessage<MapGprsRoutingAckInfo, 0x0419,
                 "MAP_Send_Routing_Info_For_GPRS_ack">;

/// Registers the whole GSM catalog with the MessageRegistry (idempotent).
void register_gsm_messages();

}  // namespace vgprs
